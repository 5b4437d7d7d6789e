"""`python -m qpklab`: the command-line runner of `qpklab.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
