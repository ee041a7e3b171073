"""Exact global minimizers for the three-sensor planar ranging objective.

Import from the submodules: ``trilat.classifier`` solves, ``trilat.oracle``
checks on a grid (and alone needs numpy), ``trilat.cli`` is the console
script.
"""

__version__ = "0.1.0"
