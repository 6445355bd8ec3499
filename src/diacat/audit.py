"""Empty: no module of the package imports this one.

It is kept only because the benchmark's tracer (``perfbench/tracer.py``)
imports ``diacat.audit`` among the modules it wraps.  Once the tracer's
module list drops ``"audit"``, this file goes.
"""
