"""``python -m fedmarket``: the same command line as the ``fedmarket`` script."""

import sys

from .cli import main

sys.exit(main())
