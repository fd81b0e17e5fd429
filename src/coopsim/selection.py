"""Adaptive mode selection: LEARN, the SPA outer loop, and baselines.

LEARN is a batched weighted-experts procedure over a candidate mode set:
each batch transmits l frames per admissible mode, penalizes weights
exponentially in the observed batch FER, applies a fixed-share style
redistribution controlled by alpha, and early-rejects modes whose
normalized weight falls to epsilon or below. SPA wraps LEARN with a
windowed-FER trigger and a ranked memory of all modes, re-learning over
only the top r entries at each trigger. The baseline policies (BRUTE,
RandPick, PWR2, NRNM, WRNM) share SPA's trigger mechanism and differ in
how they pick the next operating mode.
"""
import math
import sys
from dataclasses import dataclass, field, replace

from .netsim import Mode, enumerate_modes, mode_key_str
from .topology import check_int


class DegenerateSetError(ValueError):
    """weight_update needs at least two admissible modes."""


class UnknownPolicyError(ValueError):
    pass


@dataclass(frozen=True)
class LearnParams:
    """LEARN knobs: batch size l (frames per mode per batch), learning
    rate eta, shift parameter alpha, reject threshold epsilon, max
    batches B."""
    l: int = 1
    eta: float = 3.0
    alpha: float = 0.4
    epsilon: float = 0.05
    B: int = 50

    def __post_init__(self):
        for name in ("l", "B"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")


@dataclass(frozen=True)
class SpaParams:
    """SPA knobs: FER trigger threshold zeta, memory size r, FER window w,
    window step delta_w, minimum window count s, nested LEARN params."""
    zeta: float = 0.1
    r: int = 3
    w: int = 40
    delta_w: int = 1
    s: int = 3
    learn: LearnParams = field(default_factory=LearnParams)

    def __post_init__(self):
        for name in ("r", "w", "delta_w", "s"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        if not 0.0 < self.zeta <= 1.0:
            raise ValueError(f"zeta must be in (0, 1], got {self.zeta}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.w < 1 or self.delta_w < 1:
            raise ValueError("w and delta_w must be >= 1")
        if self.s < 0:
            raise ValueError(f"s must be >= 0, got {self.s}")


DEFAULT_PARAMS = SpaParams()

BASELINE_POLICIES = ("DT", "BRUTE", "RandPick", "PWR2", "NRNM", "WRNM", "SPA")
# The policies that draw from run_policy's rng
DRAWING_POLICIES = ("RandPick", "PWR2")


@dataclass(frozen=True)
class RankedModeList:
    """Permutation of a mode set, best first, with the most recent
    normalized learner weights (0 for modes never learned)."""
    order: tuple
    weights: dict

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise ValueError("ranked order contains duplicates")


@dataclass
class LearnCall:
    start_frame: int
    end_frame: int
    candidates: tuple
    ranked: tuple


@dataclass
class PolicyRunLog:
    """A policy run as the runs of frames it sent, each (slot, phase, n): n
    frames on mode slot `slot` (an index into keys, None there being plain
    direct transmission) in phase "operating" or "learning", in the order
    sent; the per-frame outcome categories; and trigger/LEARN bookkeeping.
    The per-frame slot, phase and mode columns are derived from the runs."""
    policy: str
    keys: tuple = ()
    runs: list = field(default_factory=list)
    categories: list = field(default_factory=list)
    triggers: list = field(default_factory=list)
    learn_calls: list = field(default_factory=list)

    @property
    def n_frames(self):
        return len(self.categories)

    @property
    def fer(self):
        if not self.categories:
            return 0.0
        return self.categories.count(2) / len(self.categories)

    @property
    def slots(self):
        return [slot for slot, _, n in self.runs for _ in range(n)]

    @property
    def phases(self):
        return [phase for _, phase, n in self.runs for _ in range(n)]

    @property
    def modes(self):
        return [self.keys[s] for s in self.slots]

    @property
    def switch_count(self):
        """Mode changes between consecutive frames; a run of no frames
        changes nothing."""
        slots = [slot for slot, _, n in self.runs if n]
        return sum(1 for a, b in zip(slots, slots[1:]) if a != b)

    def to_rows(self):
        """CSV rows: frame_index, mode, category, phase, cumulative_switches."""
        names = [mode_key_str(key) for key in self.keys]
        rows = []
        switches = 0
        prev = None
        for i, (slot, category, phase) in enumerate(
                zip(self.slots, self.categories, self.phases)):
            if i > 0 and slot != prev:
                switches += 1
            prev = slot
            rows.append([i, names[slot], category, phase, switches])
        return rows


def weight_update(weights, fers, eta, alpha):
    """Two-pass experts update; returns unnormalized weights.

    Pass 1 applies the exponential penalty w_i *= exp(-eta * f_i) and
    accumulates the shared pool P = sum (1 - (1-alpha)^{f_i}) w_i over the
    penalized weights. Pass 2 redistributes the pool:

        w_i <- (1-alpha)^{f_i} w_i + (P - (1 - (1-alpha)^{f_i}) w_i) / (n-1)

    with n the number of admissible modes.
    """
    n = len(weights)
    if n < 2:
        raise DegenerateSetError(f"need at least 2 modes, got {n}")
    if len(fers) != n:
        raise ValueError("weights and fers must have equal length")
    if any(not 0.0 <= f <= 1.0 for f in fers):
        raise ValueError("empirical FERs must lie in [0, 1]")
    penalized = [w * math.exp(-eta * f) for w, f in zip(weights, fers)]
    shares = [1.0 - (1.0 - alpha) ** f for f in fers]
    pool = sum(s * w for s, w in zip(shares, penalized))
    return [(1.0 - s) * w + (pool - s * w) / (n - 1)
            for s, w in zip(shares, penalized)]


def learn(runner, candidates, params):
    """Rank candidate modes by batched weighted-experts learning.

    runner(mode, n) must transmit n frames on the mode and return the
    empirical FER of those frames. Batches continue while more than one
    mode is admissible and fewer than B batches have run; after each
    batch, weights are updated and normalized, then modes are scanned in
    ascending weight order (ties stable by current candidate order) and
    those at or below epsilon are rejected, earliest rejection ranking
    lowest. A rejected mode receives no further frames. Survivor weights
    are renormalized to sum to 1 on exit.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidates must be nonempty")
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidates must be distinct")
    weights = {m: 1.0 / len(candidates) for m in candidates}
    if len(candidates) == 1:
        return RankedModeList(order=tuple(candidates), weights={candidates[0]: 1.0})

    l, eta, alpha, epsilon = params.l, params.eta, params.alpha, params.epsilon
    admissible = candidates
    rejected = []
    batch = 0
    while len(admissible) > 1 and batch < params.B:
        updated = weight_update([weights[m] for m in admissible],
                                [runner(m, l) for m in admissible], eta, alpha)
        total = sum(updated)
        normalized = [w / total for w in updated]
        weights.update(zip(admissible, normalized))
        if min(normalized) <= epsilon:
            rejected += sorted([m for m in admissible if weights[m] <= epsilon],
                               key=weights.__getitem__)
            admissible = [m for m in admissible if weights[m] > epsilon]
        batch += 1

    survivors = sorted(admissible, key=weights.__getitem__)
    if survivors:
        # keep the surviving set a distribution (rejected mass is dropped)
        surv_total = sum(weights[m] for m in survivors)
        for m in survivors:
            weights[m] /= surv_total
    order = tuple(reversed(rejected + survivors))
    return RankedModeList(order=order, weights={m: weights[m] for m in candidates})


def table_executor(columns):
    """Executor serving columns[mode][pos:pos + n] from one position that
    all modes share; columns maps each mode slot (None: plain DT) to one
    category byte per frame. A mode without a column is an UnknownPolicyError."""
    pos = 0

    def execute(mode_key, n):
        nonlocal pos
        try:
            column = columns[mode_key]
        except KeyError:
            raise UnknownPolicyError(f"no outcome column for mode {mode_key}") from None
        categories = column[pos:pos + n]
        pos += len(categories)
        return categories

    return execute


class _RunStopped(Exception):
    """Internal: the executor's stream has ended."""


class _FrameLoop:
    """Sends blocks of frames through the executor, recording them into the
    log, until the executor returns short."""

    def __init__(self, executor, log):
        self.executor = executor
        self.log = log
        self._keys, self._runs, self._categories = log.keys, log.runs, log.categories

    def send(self, slot, phase, n):
        """Send n frames on mode slot `slot`; returns their categories. A
        block returned short is recorded, then ends the run."""
        categories = self.executor(self._keys[slot], n)
        self._runs.append((slot, phase, len(categories)))
        self._categories += categories
        if len(categories) < n:
            raise _RunStopped
        return categories

    def learning_fer(self, slot, n):
        """Send n learning frames on mode slot `slot`; returns their FER: the
        runner of LEARN and of the probes."""
        return self.send(slot, "learning", n).count(2) / n

    def run(self, step):
        """Call step() until the executor's stream ends; returns the log."""
        try:
            while True:
                step()
        except _RunStopped:
            pass
        return self.log


def _operate_until_trigger(loop, slot, params):
    """Run the current mode for w frames, then extend by delta_w until the
    FER of the last w frames (fails / w) reaches zeta; returns the extensions i."""
    w, categories = params.w, loop.log.categories
    fails = loop.send(slot, "operating", w).count(2)
    i = 0
    while fails / w < params.zeta:
        start = len(categories)
        fails += loop.send(slot, "operating", params.delta_w).count(2)
        fails -= categories[start - w:len(categories) - w].count(2)
        i += 1
    return i


def _learn_logged(loop, candidates, learn_params):
    """LEARN over candidate slots on the loop's frames, logged as a
    LearnCall of their modes; returns the ranked slots."""
    log = loop.log
    start = log.n_frames
    order = learn(loop.learning_fer, candidates, learn_params).order
    log.learn_calls.append(LearnCall(start, log.n_frames,
                                     tuple(log.keys[s] for s in candidates),
                                     tuple(log.keys[s] for s in order)))
    return order


def _run_triggered(executor, log, params, adapt):
    """The trigger loop of the adaptive policies: operate the current slot
    (first slot 1, all_modes[0]) until the windowed FER trips, then operate
    adapt(loop, i), i being the trigger's window extensions."""
    if len(set(log.keys)) < len(log.keys):
        raise ValueError(f"{log.policy} needs distinct modes")
    loop = _FrameLoop(executor, log)
    current = 1

    def step():
        nonlocal current
        i = _operate_until_trigger(loop, current, params)
        log.triggers.append(log.n_frames)
        current = adapt(loop, i)

    return loop.run(step)


def policy_name(policy):
    """The canonical name of a policy: "Fixed:<mode>" for a Mode or a
    "fixed:<mode>" name, else the BASELINE_POLICIES spelling of the name,
    both matched in any case.

    Raises UnknownPolicyError for a name outside BASELINE_POLICIES and
    ValueError for an unparsable fixed mode.
    """
    if isinstance(policy, Mode):
        return f"Fixed:{policy}"
    name = str(policy)
    if name.lower().startswith("fixed:"):
        return f"Fixed:{Mode.parse(name.partition(':')[2])}"
    for baseline in BASELINE_POLICIES:
        if name.upper() == baseline.upper():
            return baseline
    raise UnknownPolicyError(f"unknown policy {policy!r}")


def _check_mode_count(name, n_modes, params, where=""):
    """Raise ValueError unless policy `name` can choose among n_modes
    modes: SPA needs at least r and PWR2 two."""
    if name == "SPA" and n_modes < params.r:
        raise ValueError(f"SPA needs |modes| >= r, got {n_modes} < {params.r}{where}")
    if name == "PWR2" and n_modes < 2:
        raise ValueError(f"PWR2 needs at least 2 modes, got {n_modes}{where}")


def check_policy(policy, n_relays, params=DEFAULT_PARAMS):
    """Raise ValueError unless run_policy can run policy on the modes of
    n_relays relays (one relay or more): a fixed mode must lie within them,
    and SPA and PWR2 need enough modes (_check_mode_count)."""
    name = policy_name(policy)
    if name.startswith("Fixed:"):
        Mode.parse(name.partition(":")[2]).check_relays(n_relays)
    _check_mode_count(name, len(enumerate_modes(n_relays)), params,
                      f" on {n_relays} relays")


def run_policy(policy, executor, all_modes, params=DEFAULT_PARAMS, rng=None):
    """Run one selection policy and return its PolicyRunLog, named by
    policy_name(policy).

    policy is one of "DT", "BRUTE", "RandPick", "PWR2", "NRNM", "WRNM",
    "SPA", a Mode instance (fixed mode), or "Fixed:<mode>", in any case.
    executor(mode, n) returns the categories of n frames sent on mode
    (None: plain DT) as a list or bytes. It must end its stream: a return
    shorter than n ends the run, and a run on an executor that never
    returns short never ends. A DT or fixed-mode run asks for the rest of
    the stream in one call. RandPick and PWR2 need rng. BRUTE and PWR2
    probe each candidate for w learning frames.

    SPA operates the top-ranked mode and re-learns over the top r on a
    trigger; it needs |modes| >= r (PWR2 needs two modes), checked before
    any frame is sent. The ranked list starts in enumeration order. On a trigger after i window extensions,
    the top r modes rotate to the end when i <= s (burst of triggers: the
    whole partition looks bad), otherwise only the top mode does; LEARN
    then reranks the new top r in place.
    """
    name = policy_name(policy)
    if name == "DT" or name.startswith("Fixed:"):
        mode = None if name == "DT" else Mode.parse(name.partition(":")[2])
        loop = _FrameLoop(executor, PolicyRunLog(name, (mode,)))
        return loop.run(lambda: loop.send(0, "operating", sys.maxsize))
    _check_mode_count(name, len(all_modes), params)
    if name in DRAWING_POLICIES and rng is None:
        raise ValueError(f"{name} needs rng")
    log = PolicyRunLog(name, (None, *all_modes))
    slots = range(1, len(log.keys))

    def probe(loop, candidates):
        """The candidate with the lowest FER over w learning frames each
        (ties: the earliest)."""
        fers = [(loop.learning_fer(s, params.w), k) for k, s in enumerate(candidates)]
        return candidates[min(fers)[1]]

    if name == "SPA":
        ranked = list(slots)

        def adapt(loop, i):
            turn = params.r if i <= params.s else 1
            ranked[:] = ranked[turn:] + ranked[:turn]
            ranked[:params.r] = _learn_logged(loop, tuple(ranked[:params.r]), params.learn)
            return ranked[0]
    elif name == "BRUTE":
        def adapt(loop, i):
            return probe(loop, slots)
    elif name == "RandPick":
        def adapt(loop, i):
            return slots[int(rng.integers(len(slots)))]
    elif name == "PWR2":
        def adapt(loop, i):
            a, b = rng.choice(len(slots), size=2, replace=False)
            return probe(loop, [slots[int(a)], slots[int(b)]])
    else:  # NRNM or WRNM
        lp = params.learn if name == "WRNM" else replace(params.learn, epsilon=0.0)
        def adapt(loop, i):
            return _learn_logged(loop, tuple(slots), lp)[0]

    return _run_triggered(executor, log, params, adapt)
