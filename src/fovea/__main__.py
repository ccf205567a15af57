"""`python -m fovea`: the command line front end, as the `fovea` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
