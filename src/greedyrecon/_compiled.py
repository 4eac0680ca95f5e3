"""scipy's compiled extensions, loaded from their files without importing scipy.

greedyrecon calls two compiled scipy routines: L-BFGS-B's reverse-communication
step ``setulb`` in ``scipy/optimize/_lbfgsb`` and pocketfft's ``dst`` in
``scipy/fft/_pocketfft/pypocketfft``.  Each file needs only numpy, while
``import scipy.optimize`` costs a process about 0.3 s and 45 MiB and
``import scipy.fft`` about 0.2 s and 17 MiB.  :func:`load` finds the scipy
package with ``importlib.util.find_spec``, which imports nothing, and loads
one such file as scipy's own import would, under its own module name.
Neither is loaded at import: ``_lbfgsb``, which maps scipy's own OpenBLAS
beside numpy's, at the first optimizer run, and ``pypocketfft`` when the
first mesh above ``grid.DENSE_SINE_MAX_N`` is built.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location


def load(subpackage: str, module: str):
    """The compiled extension ``scipy.<subpackage>.<module>``.

    A process that has imported it through scipy gets that module back.
    Otherwise the file is loaded and its ``sys.modules`` entry dropped, so a
    later ``import scipy.<subpackage>`` sets the package up as usual.
    """
    name = f"scipy.{subpackage}.{module}"
    if name in sys.modules:
        return sys.modules[name]
    spec = find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed", name="scipy")
    directory = os.path.join(spec.submodule_search_locations[0], *subpackage.split("."))
    paths = [os.path.join(directory, module + suffix) for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"no compiled {module} extension in {directory}", name=name)
    loader = ExtensionFileLoader(name, path)
    extension = module_from_spec(spec_from_file_location(name, path, loader=loader))
    loader.exec_module(extension)
    sys.modules.pop(name, None)
    return extension
