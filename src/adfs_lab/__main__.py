"""`python -m adfs_lab ...`: the adfs-lab command line (harness.main)."""

from .harness import main

__all__ = []

if __name__ == "__main__":
    main()
