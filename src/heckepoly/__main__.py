"""``python -m heckepoly``: the command-line front end of heckepoly.cli."""

import sys

from .cli import main

sys.exit(main())
