"""Build script.

The package is pure Python; the optional extension module
``gkspec._speedups`` accelerates the finite-field coefficient kernels
(gf_mul, gf_pow, gf_geom_sum).  If Cython or a C
compiler is unavailable the build falls back to the pure interpreter
implementation in ``gkspec._fallback`` with identical semantics.
"""

from setuptools import setup

ext_modules = []
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/gkspec/_speedups.pyx"],
        compiler_directives={
            "boundscheck": False,
            "wraparound": False,
            "cdivision": True,
            "language_level": 3,
        },
    )
except ImportError:
    pass

setup(ext_modules=ext_modules)
