"""Finite-difference gradient checker for tape-computed gradients.

Runs the function twice per probed coordinate (central differences) and
compares against the tape gradient. Failures are reported, never raised;
callers assert on the report.

A central difference carries rounding noise of about |f| * eps_mach / eps,
since f(x + eps) and f(x - eps) are each rounded by up to about
|f| * eps_mach. The absolute error of each coordinate is reduced by
``NOISE_K`` times that noise before it is compared, so a small gradient
of a large loss is not reported as a mismatch, while a gradient off by
more than the noise still is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import Xorshift64Star

# Relative error uses a floor so exactly- and nearly-zero gradients do not
# divide what is left of the finite-difference noise by ~0.
REL_FLOOR = 1e-6
NOISE_K = 8.0  # multiple of |f| * eps_mach / eps subtracted as rounding noise


@dataclass
class ParamReport:
    name: str
    checked: int
    max_rel_err: float
    worst_index: tuple = ()
    tape_grad: float = 0.0
    fd_grad: float = 0.0

    def __str__(self):
        return (
            f"{self.name}: max_rel_err={self.max_rel_err:.3e} over {self.checked} coords "
            f"(worst idx={self.worst_index}: tape={self.tape_grad:.6e} fd={self.fd_grad:.6e})"
        )


@dataclass
class GradCheckReport:
    params: list[ParamReport] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((p.max_rel_err for p in self.params), default=0.0)

    @property
    def total_checked(self) -> int:
        return sum(p.checked for p in self.params)

    def __str__(self):
        lines = [str(p) for p in self.params]
        lines.append(f"overall max_rel_err={self.max_rel_err:.3e} ({self.total_checked} coords)")
        return "\n".join(lines)


def rel_err(a: float, b: float, noise: float = 0.0) -> float:
    """|a - b| less ``noise`` (never below 0), relative to the larger of
    |a|, |b| and ``REL_FLOOR``."""
    return max(abs(a - b) - noise, 0.0) / max(abs(a), abs(b), REL_FLOOR)


def grad_check(fn, params: dict[str, np.ndarray], eps: float = 1e-5,
               max_coords_per_param: int = 25, seed: int = 0) -> GradCheckReport:
    """Compare tape gradients of ``fn`` against central differences.

    ``fn(params) -> (loss_value, grads)`` must be deterministic and run in
    float64; ``grads`` maps parameter names to arrays. Coordinates are
    subsampled per parameter when the parameter is large.
    """
    params = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    f0, grads = fn(params)
    noise = NOISE_K * abs(f0) * np.finfo(np.float64).eps / eps
    rng = Xorshift64Star(seed)
    report = GradCheckReport()

    for name in sorted(params):
        p = params[name]
        g = np.asarray(grads[name], dtype=np.float64)
        n = p.size
        if n <= max_coords_per_param:
            coords = list(range(n))
        else:
            coords = sorted({rng.randint(n) for _ in range(max_coords_per_param)})
        pr = ParamReport(name=name, checked=len(coords), max_rel_err=0.0)
        flat = p.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus, _ = fn(params)
            flat[c] = orig - eps
            f_minus, _ = fn(params)
            flat[c] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            tg = float(g.reshape(-1)[c])
            e = rel_err(tg, fd, noise)
            if e >= pr.max_rel_err:
                pr.max_rel_err = e
                pr.worst_index = np.unravel_index(c, p.shape)
                pr.tape_grad = tg
                pr.fd_grad = fd
        report.params.append(pr)
    return report
