import sys

from bench.harness import main

sys.exit(main())
