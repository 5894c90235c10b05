"""``python -m knit``: the ``knit`` command."""

import sys

from .cli import main

sys.exit(main())
