"""``python -m contactmix``: the same entry point as the ``contactmix`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
