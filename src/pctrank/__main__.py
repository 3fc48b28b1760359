"""Entry point for `python -m pctrank`."""

import sys

from .cli import console

if __name__ == "__main__":
    sys.exit(console())
