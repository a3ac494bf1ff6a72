import sys

from repro.check.runner import main

sys.exit(main())
