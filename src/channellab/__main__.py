"""``python -m channellab``: the ``channellab`` command line."""

from .cli_io import main

if __name__ == "__main__":
    raise SystemExit(main())
