"""``scipy.special``, imported the first time one of its functions is used.

Importing ``scipy.special`` costs more than the rest of the package put
together, and survival fits and density export never call it.  Module-level
``__getattr__`` (PEP 562) defers the import to the first name asked for and
caches each name in this module's globals, so later look-ups are plain
attribute reads.  Private names raise ``AttributeError`` without importing:
probes such as ``__path__`` or ``__wrapped__`` must not load scipy, and a
``__path__`` would make this module look like a package.
"""


def __getattr__(name: str):
    if name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import special

    value = getattr(special, name)
    globals()[name] = value
    return value
