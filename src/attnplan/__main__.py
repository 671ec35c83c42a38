"""``python -m attnplan``: the same command line as the ``attnplan`` script."""

from .cli import main

if __name__ == "__main__":
    main()
