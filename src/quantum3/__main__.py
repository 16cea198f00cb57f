"""`python -m quantum3`: the command-line interface."""

import sys

from quantum3.cli import main

sys.exit(main())
