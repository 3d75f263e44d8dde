"""`python -m komohe`: the komohe command line."""

from .cli import main

if __name__ == "__main__":
    main()
