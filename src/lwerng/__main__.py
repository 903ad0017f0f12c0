"""`python -m lwerng`: the same command line as the `lwerng` console script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
