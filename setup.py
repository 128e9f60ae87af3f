"""Legacy setup shim: the package metadata lives in ``pyproject.toml``.

``python setup.py develop`` makes an editable install from it where the
``wheel`` package, which pip's editable build needs, is missing.
"""

from setuptools import setup

setup()
