"""``python -m z2cover``: the same entry point as the ``z2cover`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
