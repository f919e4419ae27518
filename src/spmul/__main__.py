"""``python -m spmul``: the spmul command line (see spmul.cli)."""

from .cli import main

if __name__ == "__main__":
    main()
