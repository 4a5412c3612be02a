"""The repo's benchmark (see README.md); a package only so that pytest imports
``test_e2e_smoke`` as ``e2e.test_e2e_smoke`` and leaves ``sys.path`` alone."""
