"""Time corrdyn's set-up in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <config file>

Measures importing corrdyn, reading the config, parsing the correspondence
document and building the SphereGrid, and prints the seconds taken.
"""

import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import json
    from pathlib import Path

    from corrdyn.cli import RunConfig

    config_path = Path(sys.argv[2])
    config = RunConfig(json.loads(config_path.read_text()),
                       base_dir=config_path.parent)
    config.load_correspondence()
    config.grid()
    print(repr(time.perf_counter() - started))
