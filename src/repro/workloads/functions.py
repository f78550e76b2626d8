"""The 13 FStartBench functions (paper Table II).

Each function is a :class:`FunctionSpec`: an image (three package levels from
the default catalog), a function-initialization time and an execution-time
distribution.  Timing profiles are synthetic but calibrated to the paper's
Section II observations: compiled stacks (Java) pay heavy initialization,
interpreted ones (Python/Node) are cheap, the ML function loads a large model,
and cold-start/execution ratios span roughly the reported 1.3x--166x range.

========  =======  ==========  ====================================  ==================
FuncID    OS       Language    Runtime                               Description
========  =======  ==========  ====================================  ==================
1         Alpine   Java        Springboot                            Hello
2         Alpine   Nodejs      Express                               Hello
3         Alpine   Go          Gin                                   Hello
4         Alpine   Python      Flask                                 Hello
5         Debian   Python      Flask                                 Hello
6         Debian   Python      Flask + Numpy                         Data analytics
7         Debian   Python      Flask + Numpy + Pandas                Data analytics
8         Debian   Python      Flask + NP + Pandas + Matplotlib      Data analytics
9         CentOS   C++         (COS SDK)                             Communication
10        Debian   Python      Flask                                 Simple arithmetic
11        Alpine   Nodejs      Express                               Web service
12        Alpine   Java        Springboot                            Image processing
13        Debian   Python      Flask + Tensorflow                    Machine learning
========  =======  ==========  ====================================  ==================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.containers.image import FunctionImage
from repro.packages.catalog import PackageCatalog, default_catalog


@dataclass(frozen=True)
class FunctionSpec:
    """A serverless function definition.

    Parameters
    ----------
    func_id:
        FStartBench function id (1--13); synthetic functions use ids > 100.
    name:
        Unique function name.
    image:
        The three-level package configuration.
    function_init_s:
        Function-initialization time paid at startup (code import, framework
        boot, model load).
    exec_time_mean_s:
        Mean execution time; per-invocation times are sampled lognormally
        around this.
    exec_time_cv:
        Coefficient of variation of the execution time.
    description:
        Table II description.
    """

    func_id: int
    name: str
    image: FunctionImage
    function_init_s: float
    exec_time_mean_s: float
    exec_time_cv: float = 0.2
    description: str = ""

    def __post_init__(self) -> None:
        if self.function_init_s < 0 or self.exec_time_mean_s <= 0:
            raise ValueError(f"{self.name}: invalid timing profile")
        if self.exec_time_cv < 0:
            raise ValueError(f"{self.name}: exec_time_cv must be >= 0")

    def sample_exec_time(self, rng: np.random.Generator) -> float:
        """Draw one execution time (lognormal, mean-preserving)."""
        if self.exec_time_cv == 0:
            return self.exec_time_mean_s
        sigma2 = np.log1p(self.exec_time_cv**2)
        mu = np.log(self.exec_time_mean_s) - sigma2 / 2
        return float(rng.lognormal(mean=mu, sigma=np.sqrt(sigma2)))

    def sample_exec_times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` execution times at once (vectorized counterpart of
        :meth:`sample_exec_time`; same distribution, one RNG call)."""
        if self.exec_time_cv == 0:
            return np.full(n, self.exec_time_mean_s, dtype=np.float64)
        sigma2 = np.log1p(self.exec_time_cv**2)
        mu = np.log(self.exec_time_mean_s) - sigma2 / 2
        return rng.lognormal(mean=mu, sigma=np.sqrt(sigma2), size=n)


def _build_specs(catalog: PackageCatalog) -> List[FunctionSpec]:
    from repro.packages.catalog import language_group, os_group

    def pkg(name: str, version: str):
        return catalog.get(name, version)

    alpine = os_group(catalog, "alpine")
    debian = os_group(catalog, "debian")
    centos = os_group(catalog, "centos")
    java = language_group(catalog, "java")
    node = language_group(catalog, "nodejs")
    go = language_group(catalog, "go")
    python = language_group(catalog, "python")
    cpp = language_group(catalog, "cpp")
    springboot = pkg("springboot", "2.7")
    express = pkg("express", "4.18")
    gin = pkg("gin", "1.9")
    flask = pkg("flask", "2.3")
    np_ = pkg("numpy", "1.24")
    pandas = pkg("pandas", "2.0")
    mpl = pkg("matplotlib", "3.7")
    tf = pkg("tensorflow", "2.12")
    cos = pkg("libcos-sdk", "5.9")

    def image(name: str, packages) -> FunctionImage:
        flat = []
        for p in packages:
            flat.extend(p if isinstance(p, list) else [p])
        return FunctionImage.from_packages(f"fstart/{name}", flat)

    return [
        FunctionSpec(1, "hello-java", image("hello-java", [alpine, java, springboot]),
                     function_init_s=1.20, exec_time_mean_s=0.10,
                     description="Hello"),
        FunctionSpec(2, "hello-node", image("hello-node", [alpine, node, express]),
                     function_init_s=0.12, exec_time_mean_s=0.08,
                     description="Hello"),
        FunctionSpec(3, "hello-go", image("hello-go", [alpine, go, gin]),
                     function_init_s=0.05, exec_time_mean_s=0.05,
                     description="Hello"),
        FunctionSpec(4, "hello-python", image("hello-python", [alpine, python, flask]),
                     function_init_s=0.10, exec_time_mean_s=0.08,
                     description="Hello"),
        FunctionSpec(5, "hello-python-debian",
                     image("hello-python-debian", [debian, python, flask]),
                     function_init_s=0.10, exec_time_mean_s=0.08,
                     description="Hello"),
        FunctionSpec(6, "analytics-numpy",
                     image("analytics-numpy", [debian, python, flask, np_]),
                     function_init_s=0.25, exec_time_mean_s=0.60,
                     description="Data analytics"),
        FunctionSpec(7, "analytics-pandas",
                     image("analytics-pandas", [debian, python, flask, np_, pandas]),
                     function_init_s=0.45, exec_time_mean_s=0.90,
                     description="Data analytics"),
        FunctionSpec(8, "analytics-plot",
                     image("analytics-plot",
                           [debian, python, flask, np_, pandas, mpl]),
                     function_init_s=0.60, exec_time_mean_s=1.10,
                     description="Data analytics"),
        FunctionSpec(9, "comm-cpp", image("comm-cpp", [centos, cpp, cos]),
                     function_init_s=0.08, exec_time_mean_s=0.80,
                     description="Communication"),
        FunctionSpec(10, "alu", image("alu", [debian, python, flask]),
                     function_init_s=0.10, exec_time_mean_s=2.00,
                     description="Simple arithmetic"),
        FunctionSpec(11, "web-service", image("web-service", [alpine, node, express]),
                     function_init_s=0.15, exec_time_mean_s=0.25,
                     description="Web service"),
        FunctionSpec(12, "image-proc", image("image-proc", [alpine, java, springboot]),
                     function_init_s=1.35, exec_time_mean_s=1.50,
                     description="Image processing"),
        FunctionSpec(13, "ml-inference",
                     image("ml-inference", [debian, python, flask, tf]),
                     function_init_s=1.80, exec_time_mean_s=0.55,
                     description="Machine learning"),
    ]


_CACHE: Dict[int, List[FunctionSpec]] = {}
# The default catalog's specs by name and by FuncID, filled together with
# ``_CACHE`` on first use (no import-time work).
_BY_NAME: Dict[str, FunctionSpec] = {}
_BY_ID: Dict[int, FunctionSpec] = {}


def _default_specs() -> List[FunctionSpec]:
    """The cached default-catalog specs, built (with the name and id
    indexes) on first use."""
    specs = _CACHE.get(0)
    if specs is None:
        specs = _build_specs(default_catalog())
        _CACHE[0] = specs
        _BY_NAME.update((spec.name, spec) for spec in specs)
        _BY_ID.update((spec.func_id, spec) for spec in specs)
    return specs


def fstartbench_functions(catalog: PackageCatalog | None = None) -> List[FunctionSpec]:
    """The 13 Table-II functions (cached for the default catalog)."""
    if catalog is None:
        return list(_default_specs())
    return _build_specs(catalog)


def function_by_id(func_id: int, catalog: PackageCatalog | None = None) -> FunctionSpec:
    """Look up one Table-II function by its FuncID (1-13)."""
    if catalog is None:
        if not _BY_ID:
            _default_specs()
        spec = _BY_ID.get(func_id)
    else:
        spec = next(
            (s for s in _build_specs(catalog) if s.func_id == func_id), None
        )
    if spec is None:
        raise KeyError(f"no FStartBench function with id {func_id}")
    return spec


def functions_by_ids(
    ids: Sequence[int], catalog: PackageCatalog | None = None
) -> List[FunctionSpec]:
    """Look up several Table-II functions, preserving order."""
    return [function_by_id(i, catalog) for i in ids]


def function_by_name(
    name: str, catalog: PackageCatalog | None = None
) -> FunctionSpec:
    """Look up one Table-II function by its name (e.g. ``"hello-python"``).

    The serving plane resolves request payloads and replayed arrival logs
    through this, so function names are a stable wire format; the default
    catalog answers from a dict, one lookup per request.
    """
    if catalog is None:
        if not _BY_NAME:
            _default_specs()
        spec = _BY_NAME.get(name)
    else:
        spec = next(
            (s for s in _build_specs(catalog) if s.name == name), None
        )
    if spec is None:
        raise KeyError(f"no FStartBench function named {name!r}")
    return spec
