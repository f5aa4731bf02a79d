"""``python -m monopart``: the command-line interface of `monopart.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
