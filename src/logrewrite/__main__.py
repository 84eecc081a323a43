"""``python -m logrewrite``: the ``logrewrite`` command line."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
