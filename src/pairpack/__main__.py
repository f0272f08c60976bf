"""``python -m pairpack``: the command-line interface of ``pairpack.cli``."""
import sys

from .cli import main

sys.exit(main())
