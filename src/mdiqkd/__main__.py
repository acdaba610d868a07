"""Entry point for ``python -m mdiqkd <subcommand>``; see mdiqkd.cli."""

import sys

from .cli import main

sys.exit(main())
