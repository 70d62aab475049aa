"""``python -m ktcy``: the command-line front door, as the ``ktcy`` script."""
import sys

from .cli import main

sys.exit(main())
