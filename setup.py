"""Package metadata for ``repro``, the numpy-only reproduction library.

Install from a checkout with ``pip install -e .``.  Where the ``wheel``
package is missing (an offline environment), pip can build no editable
install; ``python setup.py develop --no-deps`` installs the same source
tree without it.  Test and lint tools are pinned in
``requirements-ci.txt``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
