"""`python -m polaris`: the same command line as the `polaris` script."""

import sys

from .cli import main

sys.exit(main())
