"""The routes' independence as one executable matrix.

Independent routes compute G(t), G(tau) and G2(t, tau) = G(t) G(tau) -
G(t + tau) of a bath on broadcast (t, tau) arrays: ``closed``, the Lorentzian
closed forms; ``exact_sum``, an exponential-sum kernel integrated exactly (the
Lorentzian is one term); ``quadrature``, the bath sampled every h into a
TabulatedKernel, then ``propagators``; and three that take G from one of them:
``closed_identity`` and ``sum_identity``, G2 by the identity, and
``double_convolution``, G2 by tests/quadrature.py's trapezoid of its definition.

A route states its error against its base, or else against the true values:
an absolute ``rounding`` plus c (h / tau_c)^2 of the quantity's peak, tau_c the
bath's shortest time scale. Every two routes agree within the errors on the
path between them, and an O(h^2) difference falls 3.5 to 4.5 times per halving
of h. Above G2, the tables, the closed-form CPF and the channel-map oracle
agree to 1e-12 on each bath's amplitudes. ``test_independence`` checks with
``ast`` that no route is built on another. A new route or bath is one entry in
ROUTES or BATHS.
"""
import ast
import functools
import itertools
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import pytest
from scipy.linalg import expm

from cpfsim import (
    InitialState,
    MeasurementScheme,
    TabulatedKernel,
    angles_from_propagator,
    conditional_table,
    lorentzian_G,
    lorentzian_G_two_time,
    propagators,
    simulate_sequence,
)
from cpfsim.cpf import closed_values, table_correlation, table_probs
from cpfsim.errors import ConditioningImpossibleError
from cpfsim.propagator import solve
from quadrature import two_time_trapezoid
from test_channel import random_amplitudes, random_state

TESTS = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Bath:
    """A kernel f; the times, from 0, on whose every pair routes are compared;
    the quadrature steps, coarsest first (none: exact routes only); the time
    scale tau_c; the closed forms' (gamma, tau_c) and the sum's (alphas,
    lambdas), where they exist; the routes it is for (None: all that accept
    it); the slice of the times whose pairs the oracle reads; and a bound
    that max |Im G2| / |G2| exceeds there."""

    f: Callable
    times: tuple
    steps: tuple = ()
    tau_c: float = 1.0
    lorentzian: Optional[tuple] = None
    terms: Optional[tuple] = None
    routes: Optional[tuple] = None
    oracle: tuple = (4,)
    imaginary: float = -1.0

    def takes(self, route):
        return ROUTES[route].accepts(self) and route in (self.routes or ROUTES)


def span(end, n=21):
    return tuple(np.linspace(0.0, end, n))


def dyadic(end, n):
    """n times from 0 to at least ``end``, a power of two apart: every t + tau
    is exact, so the identity reads G at one time per sum."""
    return tuple(np.arange(n) * 2.0 ** np.ceil(np.log2(end / (n - 1))))


def exponential_sum(alphas, lambdas, times, steps=(), **spec):
    """f = sum_k alpha_k e^{-lambda_k t}; its time scale is the shorter of its
    fastest decay 1 / max |lambda| and its coupling time 1 / sqrt |f(0)|."""
    a, lam = np.asarray(alphas, dtype=complex), np.asarray(lambdas, dtype=complex)
    spec.setdefault("tau_c", min(1 / np.max(np.abs(lam)), 1 / np.sqrt(abs(np.sum(a)))))
    f = lambda t: np.exp(-np.multiply.outer(t, lam)) @ a  # noqa: E731
    return Bath(f, tuple(times), steps, terms=(a, lam), **spec)


def lorentzian(gamma, tau_c, times, steps=(), **spec):
    alpha = gamma / (2 * tau_c)
    return exponential_sum([alpha], [1 / tau_c], times, steps, lorentzian=(gamma, tau_c), **spec)


RATIOS = (1e-3, 1e-2, 0.1, 0.5, 1, 2, 5)  # gamma tau_c; chi = 0 at 1/2
STEPS, FINE = (1 / 25, 1 / 50), (0.02, 0.01, 0.005)
# a dense plane: its oracle reads every 100th time, and only the closed forms
# and the grid routes run on it
DENSE = dict(routes=("closed", "quadrature", "double_convolution"), oracle=(0, None, 100))
# the oracle's (t, tau) at gamma = tau_c = 1: a grid to 2 pi, single points, edges
ORACLE_TIMES = {0.0, 0.4, 0.7, 0.8, 0.9, 1.3, 1.7, 1.9, 2.0, 2.4, 2.5, np.pi}
ORACLE_TIMES = sorted(ORACLE_TIMES | set(np.linspace(0, 2 * np.pi, 6)))
ORACLE_BATH = "lorentzian 1 oracle points"
BATHS = {
    **{f"lorentzian {r:g}": lorentzian(r, 1, span(20), STEPS) for r in RATIOS},
    # every grid pair of [0, 5 tau_c]^2 at h = tau_c / 100
    **{
        f"lorentzian {r:g} surface": lorentzian(r, 1, span(5, 501), (0.01,), **DENSE)
        for r in (0.5, 1, 2)
    },
    # to gamma t = 20 and beyond, at tau_c = 1 and at gamma = 1
    **{
        f"lorentzian {r:g} tau_c {tc:g} to 20/gamma": lorentzian(r / tc, tc, dyadic(20 * tc / r, 45))
        for r in (*RATIOS, 10)
        for tc in (1, r)
    },
    ORACLE_BATH: lorentzian(1, 1, ORACLE_TIMES, oracle=(None,)),
    "detuned": exponential_sum([0.5], [1 + 2j], span(20), STEPS, oracle=(6,), imaginary=0.99),
    "detuned by 4": exponential_sum([0.5], [1 + 4j], span(7, 701), (0.01,), **DENSE),
    "detuned by 8": exponential_sum([0.5], [1 + 8j], span(4), FINE),
    "detuned by 8 to 10": exponential_sum([0.5], [1 + 8j], span(10)),
    "two-term": exponential_sum([0.4, 0.3 - 0.1j], [1 + 2j, 0.5], span(4), FINE),
    "two-term to 10": exponential_sum([0.4, 0.3 - 0.1j], [1 + 2j, 0.5], span(10)),
    "near-degenerate": exponential_sum([0.2, 0.2, 0.1], [1, 1 + 1e-6, 3], span(10), (0.05, 0.025)),
    # a power-law tail from a pole at t = i / 5
    "ohmic": Bath(lambda t: 1.25 / (1 + 5j * t) ** 2, span(4), FINE, tau_c=0.2),
    "oscillating": Bath(lambda t: 0.5 * np.exp(-t) * np.cos(3 * t) + 0j, span(4), FINE, 10**-0.5),
}


def closed(bath, h, t, tau):
    g = bath.lorentzian
    return lorentzian_G(*g, t), lorentzian_G(*g, tau), lorentzian_G_two_time(*g, t, tau)


def _by_identity(G, t, tau):
    return G(t), G(tau), G(t) * G(tau) - G(t + tau)


def closed_identity(bath, h, t, tau):
    return _by_identity(functools.partial(lorentzian_G, *bath.lorentzian), t, tau)


def _sum_solution(bath, times):
    """G, I_k and A_k at each time, for f(t) = sum_k alpha_k e^{-lambda_k t}:
    the (2K+1)-variable linear ODE G' = -sum_k I_k, I_k' = alpha_k G -
    lambda_k I_k, A_k' = G - lambda_k A_k from G(0) = 1, I_k(0) = A_k(0) = 0,
    integrated exactly by a matrix exponential. Its G solves the Volterra
    equation, and G2(t, tau) = sum_k alpha_k A_k(t) A_k(tau)."""
    alphas, lambdas = bath.terms
    K = alphas.size
    M = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    M[0, 1 : K + 1] = -1.0
    M[1 : K + 1, 0] = alphas
    M[K + 1 :, 0] = 1.0
    M[1:, 1:] = -np.diag(np.concatenate([lambdas, lambdas]))
    times, at = np.unique(times, return_inverse=True)
    return expm(M * times[:, None, None])[at, :, 0]


def exact_sum(bath, h, t, tau):
    K = bath.terms[0].size
    at_t, at_tau = _sum_solution(bath, t), _sum_solution(bath, tau)
    g2 = np.sum(bath.terms[0] * at_t[..., K + 1 :] * at_tau[..., K + 1 :], axis=-1)
    return at_t[..., 0], at_tau[..., 0], g2


def sum_identity(bath, h, t, tau):
    return _by_identity(lambda x: _sum_solution(bath, x)[..., 0], t, tau)


def _samples(bath, h, t, tau):
    """The bath every h to the largest t + tau: a kernel without closed forms."""
    ts = np.arange(int(round(np.max(t + tau) / h)) + 1) * h
    return TabulatedKernel(ts, bath.f(ts))


def quadrature(bath, h, t, tau):
    return propagators(_samples(bath, h, t, tau), t, tau, h)


def double_convolution(bath, h, t, tau):
    kernel = _samples(bath, h, t, tau)
    g = solve(kernel, kernel.t_max, h).g
    i, j = (np.rint(x / h).astype(int) for x in np.broadcast_arrays(t, tau))
    return g[i], g[j], two_time_trapezoid(kernel.values, g, h, i, j)


@dataclass(frozen=True)
class Route:
    compute: Callable
    accepts: Callable
    base: Optional[str] = None
    rounding: float = 0.0
    c: float = 0.0  # > 0 for a route on the quadrature grid
    exact_on: Callable = lambda bath: False  # the baths it has no O(h^2) error on

    def order2(self, bath):
        return self.c > 0 and not self.exact_on(bath)

    def error(self, bath, h, peak):
        return self.rounding + self.order2(bath) * self.c * (h / bath.tau_c) ** 2 * peak


ROUTES = {  # most exact first: a bath's amplitudes come from the first that accepts it
    "closed": Route(closed, attrgetter("lorentzian"), rounding=1e-14),
    "closed_identity": Route(closed_identity, attrgetter("lorentzian"), "closed", 1e-14),
    "exact_sum": Route(exact_sum, attrgetter("terms"), rounding=5e-14),
    "sum_identity": Route(sum_identity, attrgetter("terms"), "exact_sum", 1e-13),
    "quadrature": Route(quadrature, attrgetter("steps"), c=0.25),
    # on a single exponential, the same discretisation as the identity
    "double_convolution": Route(
        double_convolution, attrgetter("steps"), "quadrature", 5e-15, 0.025,
        lambda bath: bath.terms is not None and bath.terms[0].size == 1,
    ),
}


def _chain(route):
    return [route, *_chain(ROUTES[route].base)] if route else []


def _path(a, b, g2):
    """The routes whose errors separate a's values from b's: on the path
    between them for G2, between the routes they take G from for G."""
    if not g2:
        a, b = _chain(a)[-1], _chain(b)[-1]
    return [ROUTES[r] for r in set(_chain(a)) ^ set(_chain(b))]


def evaluate(route, bath, h):
    """A route's values on every pair of a bath's times, at step h on the grid."""
    return _evaluate(route, bath, h if ROUTES[route].c else 0.0)


@functools.cache
def _evaluate(route, bath, h):
    t = np.asarray(BATHS[bath].times)
    return ROUTES[route].compute(BATHS[bath], h, t[:, None], t[None, :])


def routes_agree(bath, a, b):
    spec = BATHS[bath]
    real = not np.any(spec.f(np.asarray(spec.times)).imag)
    errors = []
    for h in spec.steps if ROUTES[a].c or ROUTES[b].c else [0.0]:
        (a_t, a_tau, a2), (b_t, b_tau, b2) = evaluate(a, bath, h), evaluate(b, bath, h)
        peak = np.max(np.abs(a2))
        assert peak > (1e-4 if spec.lorentzian else 1e-2)  # a bath with memory
        assert not (np.any(a2[0]) or np.any(a2[:, 0]) or np.any(b2[0]) or np.any(b2[:, 0]))
        if real:
            assert max(np.max(np.abs(np.imag(v))) for v in (a_t, b_t, a2, b2)) < 1e-12
        else:
            assert np.max(np.abs(a2.imag)) > 0.1 * peak
        g_err = max(np.max(np.abs(a_t - b_t)), np.max(np.abs(a_tau - b_tau)))
        errors.append((g_err, np.max(np.abs(a2 - b2))))
        for err, g2, scale in zip(errors[-1], (False, True), (1.0, peak)):
            bound = sum(r.error(spec, h, scale) for r in _path(a, b, g2))
            assert err <= bound, f"{'G2' if g2 else 'G'} at h = {h:g}: {err:.3g} > {bound:.3g}"
    for errs, g2 in zip(zip(*errors), (False, True)):
        if any(r.order2(spec) for r in _path(a, b, g2)):
            assert min(errs) > 1e-8  # a discretisation error, not rounding
            assert all(3.5 <= coarse / fine <= 4.5 for coarse, fine in zip(errs, errs[1:]))


@pytest.mark.parametrize(
    "bath, a, b",
    [
        pytest.param(bath, a, b, id=f"{bath}: {a} - {b}")
        for bath, spec in BATHS.items()
        for a, b in itertools.combinations(ROUTES, 2)
        if spec.takes(a) and spec.takes(b)
    ],
)
def test_routes_agree(bath, a, b):
    routes_agree(bath, a, b)


STATES = [InitialState.from_population(p) for p in (1.0, 0.8, 0.5)]
STATES.append(InitialState(0.6 * np.exp(0.7j), 0.8 * np.exp(-0.3j)))


def amplitude_sets(bath):
    """(state, G(t), G(tau), G2) over points: in each state, every pair of a
    bath's ``oracle`` times from its most exact route at its finest step; or
    the seeded random states and complex amplitudes."""
    if bath == "random":
        rng = np.random.default_rng(23)
        for _ in range(200):
            yield (random_state(rng), *np.array([random_amplitudes(rng)]).T)
        return
    spec = BATHS[bath]
    route = next(filter(spec.takes, ROUTES))
    values = evaluate(route, bath, spec.steps[-1] if spec.steps else None)
    pairs = (slice(*spec.oracle),) * 2
    points = [np.broadcast_to(v, (len(spec.times),) * 2)[pairs].ravel() for v in values]
    g2 = points[2][points[2] != 0]
    assert np.max(np.abs(g2.imag) / np.abs(g2), initial=0.0) > spec.imaginary
    for state in STATES:
        yield (state, *points)


def _conditioned(joint, scheme, y):
    try:
        return conditional_table(joint, scheme, y)
    except ConditioningImpossibleError:
        return np.full(4, np.nan)


def tables_closed_forms_and_oracle_agree(bath):
    """Each table entry and CPF to 1e-12, NaN where y cannot occur (where the
    oracle refuses), and every CPF 0 where G2 is (the edges t = 0, tau = 0)."""
    oracle, tables, closed, g2s = [], [], [], []
    for state, g_t, g_tau, g2 in amplitude_sets(bath):
        for scheme in MeasurementScheme:
            joints = [
                simulate_sequence(state, scheme, angles_from_propagator(*point))
                for point in zip(g_t, g_tau, g2)
            ]
            for y in (+1, -1):
                oracle += [_conditioned(joint, scheme, y) for joint in joints]
                tables.append(table_probs(scheme, state, y, g_t, g_tau, g2))
                closed.append(closed_values(scheme, state, g_t, g2, y=y))  # 0 for y = +1
                g2s.append(g2)
    oracle, tables, closed = np.array(oracle), np.concatenate(tables), np.concatenate(closed)
    for got, want in [
        (oracle, tables),
        (table_correlation(oracle), closed),
        (table_correlation(tables), closed),
    ]:
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.max(np.abs(got - want)[~nan], initial=0.0) <= 1e-12
    assert not np.any(closed[(np.concatenate(g2s) == 0) & ~np.isnan(closed)])


@pytest.mark.parametrize("bath", [*BATHS, "random"])
def test_tables_closed_forms_and_oracle_agree(bath):
    tables_closed_forms_and_oracle_agree(bath)


def _sources(tree):
    """The modules a module imports from, and the names it imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.add((node.module or "").rsplit(".", 1)[-1])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= {alias.name.rsplit(".", 1)[-1] for alias in node.names}
    return out


def _reach(tree, roots):
    """The nodes of the module-level functions ``roots`` and of every
    module-level function they name, transitively."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    nodes, todo = {}, list(roots)
    while todo:
        name = todo.pop()
        if name not in nodes:
            nodes[name] = list(ast.walk(functions[name]))
            todo += _names(nodes[name]) & functions.keys()
    return [node for body in nodes.values() for node in body]


def _names(nodes):
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {
        n.attr for n in nodes if isinstance(n, ast.Attribute)
    }


def test_independence():
    src = TESTS.parent / "src" / "cpfsim"
    paths = (src / "channel.py", src / "cpf.py", src / "propagator.py", TESTS / "quadrature.py")
    channel, cpf, propagator, quadrature = (ast.parse(path.read_text()) for path in paths)
    # the tables and the oracle take amplitudes, never a propagator; the
    # oracle takes no bath either
    assert "propagator" not in _sources(channel) | _sources(cpf)
    assert "bath" not in _sources(channel)
    # the closed forms reach no quadrature, and their G2 is not built from G:
    # it names no lorentzian_G and evaluates nothing at t + tau
    closed_forms = _reach(propagator, ["_lorentzian_cs", "lorentzian_G", "lorentzian_G_two_time"])
    assert not _names(closed_forms) & {"volterra_trapezoid", "solve", "Solved"}
    g2 = _reach(propagator, ["lorentzian_G_two_time"])
    assert "lorentzian_G" not in _names(g2)
    assert not {ast.unparse(n) for n in g2 if isinstance(n, ast.BinOp)} & {"t + tau", "tau + t"}
    # the definition's trapezoid uses no name imported into tests/quadrature.py
    trapezoid = _reach(quadrature, ["two_time_trapezoid", "_weighted_reversed"])
    assert not _names(trapezoid) & _sources(quadrature)
