"""Skyscraper systems, within-tower elements, exact metrics."""

import random

import pytest

from odofull import (
    CrossesTopError,
    DepthCapError,
    Dyadic,
    MassExceedsOneError,
    NotBijectiveError,
    NotInLevelSetError,
    SystemMismatchError,
    TowerElement,
    TowerSystem,
    counterexample_element,
    counterexample_report,
    tower_metric,
)


def from_shifts(system: TowerSystem, tables) -> TowerElement:
    """Build from dense per-level shift tables, one per tower."""
    return TowerElement.from_moves(system, [dict(enumerate(table)) for table in tables])


def path_distance_oracle(u: TowerElement, v: TowerElement) -> Dyadic:
    """Per-point walk along the tower path graph instead of |shift| sums."""
    total = Dyadic(0)
    for tower, mu, mv in zip(u.system.towers, u.moves, v.moves):
        a, b = dict(mu), dict(mv)
        for i in set(a) | set(b):
            top, bottom = i + a.get(i, 0), i + b.get(i, 0)
            steps = 0
            while top != bottom:
                top += 1 if top < bottom else -1
                steps += 1
            total = total + tower.base_measure * steps
    return total


# -- systems -----------------------------------------------------------------


def test_tower_make_single():
    system = TowerSystem([(4, Dyadic(1, 3))])
    assert system.total_mass == Dyadic(1, 1)
    assert system.mass_deficit() == Dyadic(1, 1)


def test_tower_make_geometric_family():
    count = 6
    system = TowerSystem([(4**n, Dyadic(1, 3 * n)) for n in range(1, count + 1)])
    assert system.total_mass == Dyadic((1 << count) - 1, count)
    assert system.mass_deficit() == Dyadic(1, count)


def test_tower_make_mass_check():
    with pytest.raises(MassExceedsOneError):
        TowerSystem([(1, Dyadic(2))])
    with pytest.raises(ValueError):
        TowerSystem([(0, Dyadic(1, 1))])
    with pytest.raises(ValueError):
        TowerSystem([(1, Dyadic(0))])


def test_tower_make_rejects_non_integer_values():
    for tower in [(1, 0.5), (1.5, Dyadic(1, 1)), (1, "1/2^1"), (True, Dyadic(1, 3))]:
        with pytest.raises(TypeError, match="tower 1"):
            TowerSystem([(2, Dyadic(1, 3)), tower])
    assert TowerSystem([(1, 1)]).towers[0].base_measure == Dyadic(1)
    # a bool shift or level would be stored as such and printed as True
    system = TowerSystem([(2, Dyadic(1, 3)), (2, Dyadic(1, 3))])
    for moves in [{0: True, 1: -1}, {True: -1, 0: 1}, {0: 1.0, 1: -1}, {0.0: 1, 1: -1}]:
        with pytest.raises(TypeError, match="tower 1: level and shift must be integers"):
            TowerElement.from_moves(system, [{}, moves])


# -- elements -----------------------------------------------------------------


def test_identity_element():
    system = TowerSystem([(4, Dyadic(1, 3))])
    u = from_shifts(system, [[0, 0, 0, 0]])
    assert u.is_identity
    assert u == TowerElement.identity(system)


def test_half_swap_is_involution():
    system = TowerSystem([(4, Dyadic(1, 3))])
    u = from_shifts(system, [[2, 2, -2, -2]])
    assert u * u == TowerElement.identity(system)
    assert u.inverse() == u


def test_crossing_top_rejected():
    system = TowerSystem([(4, Dyadic(1, 3))])
    with pytest.raises(CrossesTopError):
        from_shifts(system, [[1, 1, 1, 1]])
    with pytest.raises(CrossesTopError):
        from_shifts(system, [[-1, 0, 0, 0]])


def test_non_bijective_rejected():
    system = TowerSystem([(4, Dyadic(1, 3))])
    with pytest.raises(NotBijectiveError):
        from_shifts(system, [[1, 0, 0, 0]])
    with pytest.raises(NotBijectiveError):
        from_shifts(system, [[2, 1, 0, -1]])


def test_sparse_and_dense_construction_agree():
    system = TowerSystem([(8, Dyadic(1, 4)), (2, Dyadic(1, 4))])
    dense = from_shifts(system, [[4, 0, 0, 0, -4, 0, 0, 0], [1, -1]])
    sparse = TowerElement.from_moves(system, [{0: 4, 4: -4}, {0: 1, 1: -1}])
    assert dense == sparse
    assert dense.moves == (((0, 4), (4, -4)), ((0, 1), (1, -1)))


def _per_move_scan(system, tables):
    """The move-by-move range and bijectivity scan, as a reference for the messages."""
    canonical = []
    for t, (tower, table) in enumerate(zip(system.towers, tables)):
        shifts = {i: n for i, n in table.items() if n}
        images = set()
        for i, n in sorted(shifts.items()):
            if not 0 <= i < tower.height:
                raise ValueError(f"tower {t}: no level {i}")
            if not 0 <= i + n < tower.height:
                raise CrossesTopError(
                    f"tower {t}: level {i} shifted to {i + n}, outside [0, {tower.height})"
                )
            if i + n in images:
                raise NotBijectiveError(f"tower {t}: two levels shifted to {i + n}")
            images.add(i + n)
        if images != set(shifts):
            stray = min(images ^ set(shifts))
            raise NotBijectiveError(f"tower {t}: level {stray} has colliding preimages")
        canonical.append(tuple(sorted(shifts.items())))
    return tuple(canonical)


def _random_move_table(rng, height):
    """A permutation of random levels, then up to two faults and some zero shifts."""
    levels = rng.sample(range(height), rng.randint(0, height))
    table = {i: j - i for i, j in zip(levels, rng.sample(levels, len(levels)))}
    for fault in rng.sample(("none", "level", "range", "merge", "fixed"), rng.randint(1, 2)):
        moved = [i for i in table if 0 <= i < height]
        if fault == "level":
            table[rng.choice((-1 - rng.randrange(3), height + rng.randrange(3)))] = rng.randint(-2, 2)
        elif fault == "range" and moved:
            i = rng.choice(moved)
            table[i] = rng.choice((height + rng.randrange(3), -1 - rng.randrange(3))) - i
        elif fault == "merge" and len(moved) > 1:
            i, j = rng.sample(moved, 2)
            table[i] = j + table[j] - i
        elif fault == "fixed" and moved and len(moved) < height:
            i = rng.choice(moved)
            table[i] = rng.choice([k for k in range(height) if k not in table]) - i
    for k in rng.sample(range(height), rng.randint(0, min(3, height))):
        table.setdefault(k, 0)
    return table


def test_move_faults_are_named_as_by_the_per_move_scan():
    rng = random.Random(2001)
    seen = dict.fromkeys(("no level", "top", "bottom", "two levels", "colliding", "valid"), 0)
    zero_shifts = 0
    for _ in range(400):
        system = TowerSystem([(rng.randint(1, 10), Dyadic(1, 5)) for _ in range(rng.randint(1, 2))])
        tables = [_random_move_table(rng, tower.height) for tower in system.towers]
        zero_shifts += any(0 in table.values() for table in tables)
        try:
            canonical = _per_move_scan(system, tables)
        except (ValueError, CrossesTopError, NotBijectiveError) as exc:
            message = str(exc)
            if isinstance(exc, CrossesTopError):
                kind = "bottom" if "shifted to -" in message else "top"
            else:
                kind = next(key for key in seen if key in message)
            seen[kind] += 1
            with pytest.raises(type(exc)) as raised:
                TowerElement.from_moves(system, tables)
            assert type(raised.value) is type(exc) and str(raised.value) == message
        else:
            seen["valid"] += 1
            assert TowerElement.from_moves(system, tables).moves == canonical
    assert min(seen.values()) >= 20, seen
    assert zero_shifts >= 100


def test_group_laws_random():
    rng = random.Random(503)
    system = TowerSystem([(6, Dyadic(1, 4)), (5, Dyadic(1, 5))])

    def random_tower_element():
        shifts = []
        for tower in system.towers:
            levels = list(range(tower.height))
            rng.shuffle(levels)
            shifts.append([levels[i] - i for i in range(tower.height)])
        return from_shifts(system, shifts)

    identity = TowerElement.identity(system)
    for _ in range(100):
        u, v, w = (random_tower_element() for _ in range(3))
        assert (u * v) * w == u * (v * w)
        assert u * u.inverse() == identity
        assert u.inverse() * u == identity


def test_system_mismatch_rejected():
    a = TowerElement.identity(TowerSystem([(2, Dyadic(1, 2))]))
    b = TowerElement.identity(TowerSystem([(3, Dyadic(1, 2))]))
    with pytest.raises(SystemMismatchError):
        tower_metric(a, b)
    with pytest.raises(SystemMismatchError):
        a * b


# -- metrics -------------------------------------------------------------------


def test_metric_zero_on_equal_elements():
    u = counterexample_element(2)
    assert tower_metric(u, u) == Dyadic(0)
    assert tower_metric(u, u, induced_on=[range(0, 16, 4)]) == Dyadic(0)


def test_metric_first_crossing_element():
    u = counterexample_element(1)
    identity = TowerElement.identity(u.system)
    assert tower_metric(u, identity) == Dyadic(1, 1)
    assert tower_metric(u, identity, induced_on=[[0, 2]]) == Dyadic(1, 2)


def test_metric_matches_path_walk_oracle():
    rng = random.Random(509)
    system = TowerSystem([(16, Dyadic(1, 6)), (64, Dyadic(1, 8))])
    for _ in range(50):
        shifts = []
        for tower in system.towers:
            levels = list(range(tower.height))
            rng.shuffle(levels)
            shifts.append([levels[i] - i for i in range(tower.height)])
        u = from_shifts(system, shifts)
        shifts = []
        for tower in system.towers:
            levels = list(range(tower.height))
            rng.shuffle(levels)
            shifts.append([levels[i] - i for i in range(tower.height)])
        v = from_shifts(system, shifts)
        assert tower_metric(u, v) == path_distance_oracle(u, v)


def test_metric_induced_rejects_moves_off_the_level_set():
    u = counterexample_element(1)
    identity = TowerElement.identity(u.system)
    with pytest.raises(NotInLevelSetError):
        tower_metric(u, identity, induced_on=[[0, 1]])
    with pytest.raises(ValueError):
        tower_metric(u, identity, induced_on=[[0, 99]])


def test_metric_induced_counts_positions_not_levels():
    system = TowerSystem([(9, Dyadic(1, 4))])
    u = TowerElement.from_moves(system, [{0: 8, 8: -8}])
    identity = TowerElement.identity(system)
    assert tower_metric(u, identity) == Dyadic(1)
    # levels 0, 4, 8 sit one return-step apart, so the jump costs two steps
    assert tower_metric(u, identity, induced_on=[[0, 4, 8]]) == Dyadic(1, 2)


# -- strided block swaps against a plain-dict reference -----------------------------
#
# The functions below compute products and metrics on plain dicts, one entry
# per moved level, without ``TowerElement``: the reference that its products,
# inverses and metrics must reproduce on products of strided block swaps.


def _reference_product(outer: dict, inner: dict) -> dict:
    combined = {}
    for i in set(outer) | set(inner):
        first = inner.get(i, 0)
        total = first + outer.get(i + first, 0)
        if total:
            combined[i] = total
    return combined


def _reference_metric(system, a_tables, b_tables, induced_on=None) -> Dyadic:
    total = Dyadic(0)
    for t, (tower, a, b) in enumerate(zip(system.towers, a_tables, b_tables)):
        if induced_on is None:
            position = range(tower.height)
        else:
            ordered = sorted(set(induced_on[t]))
            if any(not 0 <= i < tower.height for i in ordered):
                raise ValueError(f"tower {t}: level set out of range")
            position = {level: k for k, level in enumerate(ordered)}
            for table in (a, b):
                for i, n in sorted(table.items()):
                    if i not in position or i + n not in position:
                        raise NotInLevelSetError(
                            f"tower {t}: move {i} -> {i + n} leaves the level set"
                        )
        weight = sum(
            abs(position[i + a.get(i, 0)] - position[i + b.get(i, 0)]) for i in set(a) | set(b)
        )
        total = total + tower.base_measure * weight
    return total


def _block_swaps(rng, height, grid):
    """A product of strided block swaps and transpositions on the levels ``grid * k``."""
    slots = (height - 1) // grid + 1
    table = {}
    for _ in range(rng.randint(0, 4)):
        # in units of grid: block A at start + k * stride, block B shift above it
        stride, count = rng.randint(1, 3), rng.randint(1, 4)
        shift = rng.randint(stride * (count - 1) + 1, max(slots, stride * count))
        span = stride * (count - 1) + shift
        if span >= slots:
            continue
        start = rng.randrange(slots - span)
        swap = {}
        for k in range(count):
            i = grid * (start + k * stride)
            swap[i], swap[i + grid * shift] = grid * shift, -grid * shift
        table = _reference_product(swap, table)
    for _ in range(rng.randint(0, 2) if slots > 1 else 0):
        i, j = (grid * k for k in rng.sample(range(slots), 2))
        table = _reference_product({i: j - i, j: i - j}, table)
    return table


def _expanded(tables):
    return tuple(tuple(sorted(table.items())) for table in tables)


def test_block_swaps_match_the_plain_dict_reference():
    rng = random.Random(2101)
    strided = 0
    for _ in range(300):
        grid = rng.choice((1, 2, 4))
        heights = [rng.randint(1, 40) for _ in range(rng.randint(1, 3))]
        system = TowerSystem([(height, Dyadic(1, 8)) for height in heights])
        a = [_block_swaps(rng, height, grid) for height in heights]
        b = [_block_swaps(rng, height, grid) if rng.random() < 0.7 else {} for height in heights]
        u, v = TowerElement.from_moves(system, a), TowerElement.from_moves(system, b)
        identity = TowerElement.identity(system)
        assert u.moves == _expanded(a) and v.moves == _expanded(b)
        product = [_reference_product(x, y) for x, y in zip(a, b)]
        assert (u * v).moves == _expanded(product)
        assert u * v == TowerElement.from_moves(system, product)
        assert hash(u * v) == hash(TowerElement.from_moves(system, product))
        inverse = [{i + n: -n for i, n in x.items()} for x in a]
        assert u.inverse().moves == _expanded(inverse)
        assert u.inverse() == TowerElement.from_moves(system, inverse)
        assert u * u.inverse() == identity
        moved = [sorted({j for i, n in [*p.items(), *q.items()] for j in (i, i + n)}) for p, q in zip(a, b)]
        level_sets = [
            None,
            [tuple(levels) for levels in moved],
            [range(height) for height in heights],
            [range(0, height, grid) for height in heights],
        ]
        fixed = [{}] * len(heights)
        for x, y, xs, ys in ((u, v, a, b), (u, identity, a, fixed), (identity, v, fixed, b)):
            for levels in level_sets:
                assert tower_metric(x, y, levels) == _reference_metric(system, xs, ys, levels)
        strided += grid > 1 and any(a)
    assert strided >= 100


def test_metric_on_strided_level_sets():
    system = TowerSystem([(16, Dyadic(1, 5)), (9, Dyadic(1, 5))])
    # tower 0: levels 0, 4 jump up by 8, and back; tower 1: one transposition
    u = TowerElement.from_moves(system, [{0: 8, 4: 8, 8: -8, 12: -8}, {2: 6, 8: -6}])
    identity = TowerElement.identity(system)
    tables = [dict(m) for m in u.moves]
    cases = {
        "ambient": None,
        "tuple": [(0, 4, 8, 12), (2, 5, 8)],
        "step 1": [range(16), range(2, 9)],
        "step 4, past the moves": [range(0, 16, 4), range(2, 9, 3)],
        "step 2, past the moves": [range(0, 16, 2), range(0, 9, 2)],
        "step 4, up to the moves": [range(0, 13, 4), range(2, 9, 6)],
    }
    for name, levels in cases.items():
        expected = _reference_metric(system, tables, [{}, {}], levels)
        assert tower_metric(u, identity, levels) == expected, name
        assert tower_metric(identity, u, levels) == expected, name
    assert tower_metric(u, identity) == Dyadic(4 * 8 + 2 * 6, 5)
    assert tower_metric(u, identity, [range(0, 16, 4), range(2, 9, 3)]) == Dyadic(4 * 2 + 2 * 2, 5)


def test_off_set_moves_are_named_as_by_the_per_level_reference():
    system = TowerSystem([(16, Dyadic(1, 5)), (16, Dyadic(1, 5))])
    identity = TowerElement.identity(system)
    cases = [
        # a middle member off the set while the end points and images are on it
        ([{0: 8, 2: 8, 4: 8, 8: -8, 10: -8, 12: -8}, {}], [range(0, 16, 4), range(16)]),
        # every image off the set
        ([{0: 2, 4: 2, 8: 2, 2: -2, 6: -2, 10: -2}, {}], [range(0, 16, 4), range(16)]),
        # a single move whose image is off the set
        ([{0: 3, 3: -3}, {}], [range(0, 16, 2), range(16)]),
        # the fault is in the second tower
        ([{0: 4, 4: -4}, {1: 2, 3: -2}], [range(0, 16, 4), range(1, 16, 4)]),
        # an empty set
        ([{0: 4, 4: -4}, {}], [range(0, 0, 4), range(16)]),
        # a set that stops before the moves
        ([{8: 4, 12: -4}, {}], [range(0, 9, 4), range(16)]),
    ]
    other = TowerElement.from_moves(system, [{1: 14, 15: -14}, {5: 8, 13: -8}])
    for tables, levels in cases:
        u = TowerElement.from_moves(system, tables)
        for x, y in ((u, identity), (identity, u), (u, other), (other, u)):
            with pytest.raises(NotInLevelSetError) as expected:
                _reference_metric(system, [dict(m) for m in x.moves], [dict(m) for m in y.moves], levels)
            with pytest.raises(NotInLevelSetError) as raised:
                tower_metric(x, y, levels)
            assert str(raised.value) == str(expected.value)
    u = TowerElement.from_moves(system, [{0: 4, 4: -4}, {}])
    with pytest.raises(ValueError, match="tower 0: level set out of range"):
        tower_metric(u, identity, [range(0, 20, 4), range(16)])


def test_single_level_runs_and_one_sided_towers():
    system = TowerSystem([(12, Dyadic(1, 6)), (12, Dyadic(1, 6))])
    # no two neighbouring moves share a shift, and each operand fixes one tower
    scattered = {0: 5, 5: 2, 7: -7, 3: 1, 4: -1}
    u = TowerElement.from_moves(system, [scattered, {}])
    v = TowerElement.from_moves(system, [{}, {1: 9, 10: -9}])
    assert u.moves == (tuple(sorted(scattered.items())), ())
    for product in (u * v, v * u):
        assert product.moves == _expanded([scattered, {1: 9, 10: -9}])
        assert product == TowerElement.from_moves(system, [scattered, {1: 9, 10: -9}])
    assert (u * v).inverse() == v.inverse() * u.inverse()
    for levels in (None, [range(12)] * 2, [[0, 5, 7, 3, 4, 1, 10, 11]] * 2):
        assert tower_metric(u, v, levels) == _reference_metric(
            system, [scattered, {}], [{}, {1: 9, 10: -9}], levels
        )


# -- the crossing involutions ------------------------------------------------------


def test_counterexample_element_small_cases():
    u1 = counterexample_element(1)
    assert dict(u1.moves[0]) == {0: 2, 2: -2}
    u2 = counterexample_element(2)
    assert dict(u2.moves[0]) == {0: 8, 4: 8, 8: -8, 12: -8}


def test_counterexample_elements_are_involutions():
    for n in range(1, 13):
        u = counterexample_element(n)
        assert (u * u).is_identity
        assert len(u.moves[0]) == 2**n


def test_counterexample_report_exact_columns():
    report = counterexample_report(10)
    assert report.mass_deficit == Dyadic(1, 10)
    for row in report.rows:
        assert row.ambient_distance == Dyadic(1, 1)
        assert row.induced_distance == Dyadic(1, row.n + 1)


def test_counterexample_rows_are_capped_like_table_depth():
    with pytest.raises(DepthCapError):
        counterexample_report(25)
    with pytest.raises(DepthCapError):
        counterexample_element(25)


def test_counterexample_report_at_the_depth_cap(monkeypatch):
    monkeypatch.delenv("ERGO_DEPTH_CAP", raising=False)
    report = counterexample_report(24)
    assert report.mass_deficit == Dyadic(1, 24)
    assert [(row.n, row.ambient_distance, row.induced_distance) for row in report.rows] == [
        (n, Dyadic(1, 1), Dyadic(1, n + 1)) for n in range(1, 25)
    ]


def test_counterexample_induced_column_sums_geometrically():
    report = counterexample_report(10)
    total = Dyadic(0)
    for row in report.rows:
        total = total + row.induced_distance
    assert total == Dyadic(1023, 11)
