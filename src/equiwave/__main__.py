"""python -m equiwave <command> ...: the same entry point as `equiwave`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
