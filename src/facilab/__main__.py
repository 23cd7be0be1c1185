"""``python -m facilab``: the ``facilab`` command line."""

import sys

from .cli import main

sys.exit(main())
