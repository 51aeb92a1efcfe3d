"""Entry point for ``python -m braidjones``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
