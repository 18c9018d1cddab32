"""``python -m zslen``: the same command line as the ``zslen`` script."""

import sys

from .cli import main

sys.exit(main())
