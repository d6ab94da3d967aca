"""The library's one input rule, on every public reader of coordinates, times and
generator indices.

Every coordinate and time a caller hands in is read by ``linalg.parse_rational``:
an int, a Fraction and a "p/q" string give equal objects, and a float, a bool or
None is refused with FormatError, as in system and path files and on the command
line.  A generator index is an int from 0 to n - 1; a bool, a float or an index
out of range is refused with FormatError.
"""

from fractions import Fraction as F

import pytest

from heckepaths import RootGeneratingSystem, galleries, model, paths
from heckepaths.errors import FormatError
from heckepaths.root_system import IDENTITY, dominance_difference, validate_gcm

A2 = RootGeneratingSystem.from_gcm([[2, -1], [-1, 2]])
H = F(1, 2)
WORDS, TIMES = [(0, 1, 0), ()], [0, H, 1]  # 0 -> -theta^v/2 -> 0 on the shape theta^v = (1, 1)
PATH = paths.make_path(A2, (1, 1), (0, 0), WORDS, TIMES)
# the chain at PATH's breakpoint 1/2: from its first direction (-1, -1) to its second (1, 1) at (-1/2, -1/2)
CHAIN = {"xi_from": (-1, -1), "xi_to": (1, 1), "x": (-H, -H), "shape": (1, 1)}


def _system(roots, coroots):
    system = RootGeneratingSystem(validate_gcm([[2, -1], [-1, 2]]), roots, coroots)
    return system.simple_roots, system.simple_coroots


def _chains(reader, slot, x):
    """reader (find_chain or all_chains) at CHAIN, with x for the first coordinate of slot,
    or for the LS breakpoint time when slot is a_j."""
    args = {k: (x, *v[1:]) if k == slot else v for k, v in CHAIN.items()}
    kind, a_j = ("ls", x) if slot == "a_j" else ("hecke", None)
    if reader == "find_chain":
        return paths.find_chain(A2, args["xi_from"], args["xi_to"], args["x"], args["shape"], kind, a_j)
    return paths.all_chains(A2, args["shape"], args["x"], args["xi_from"], args["xi_to"], 20, kind, a_j)


# name: (the reader with x in one place, the value x stands for there)
READERS = {
    "make_path shape": (lambda x: paths.make_path(A2, (x, 1), (0, 0), WORDS, TIMES), 1),
    "make_path start": (lambda x: paths.make_path(A2, (1, 1), (0, x), WORDS, TIMES), 0),
    "make_path breakpoints": (lambda x: paths.make_path(A2, (1, 1), (0, 0), WORDS, [0, x, 1]), H),
    "straight_path lam": (lambda x: paths.straight_path(A2, (x, 0)), 1),
    "straight_path start": (lambda x: paths.straight_path(A2, (1, 0), (0, x)), 0),
    "eval_path t": (lambda x: paths.eval_path(PATH, x), H),
    **{
        f"{reader} {slot}": (lambda x, reader=reader, slot=slot: _chains(reader, slot, x), good)
        for reader in ("find_chain", "all_chains")
        for slot, good in (("xi_from", -1), ("xi_to", 1), ("x", -H), ("shape", 1), ("a_j", H))
    },
    "generate_ls_paths lam": (lambda x: model.generate_ls_paths(A2, (x, 1)), 1),
    "multiplicity lam": (lambda x: model.multiplicity(A2, (x, 1), (0, 0)), 1),
    "multiplicity mu": (lambda x: model.multiplicity(A2, (1, 1), (x, 0)), 0),
    "freudenthal_multiplicity lam": (lambda x: model.freudenthal_multiplicity(A2, (x, 1), (0, 0)), 1),
    "freudenthal_multiplicity mu": (lambda x: model.freudenthal_multiplicity(A2, (1, 1), (x, 0)), 0),
    "enumerate_hecke lam": (lambda x: model.enumerate_hecke(A2, (x, 1), (1, 0), (1, 0)), 1),
    "enumerate_hecke y0": (lambda x: model.enumerate_hecke(A2, (1, 1), (x, 0), (1, 0)), 1),
    "enumerate_hecke y1": (lambda x: model.enumerate_hecke(A2, (1, 1), (1, 0), (x, 0)), 1),
    "minimal_gallery z": (lambda x: galleries.minimal_gallery(A2, (x, 0), (0, 1)), 0),
    "galleries_of_type z": (lambda x: galleries.galleries_of_type(A2, (x, 0), (0, 1), (1, 1)), 0),
    "galleries_of_type target": (lambda x: galleries.galleries_of_type(A2, (0, 0), (0, 1), (x, 1)), 1),
    "simple_reflection v": (lambda x: A2.simple_reflection(0, (x, 0)), 1),
    "rho_value v": (lambda x: A2.rho_value((x, 0)), 1),
    "coset_of_vector xi": (lambda x: A2.coset_of_vector((x, 1), (1, 1)), 1),
    "coset_of_vector lam": (lambda x: A2.coset_of_vector((1, 1), (x, 1)), 1),
    "tits_cone_membership v": (lambda x: A2.tits_cone_membership((x, 0)), 1),
    "dominance_difference lam": (lambda x: dominance_difference(A2, (x, 1), (0, 0)), 1),
    "dominance_difference mu": (lambda x: dominance_difference(A2, (1, 1), (x, 0)), 0),
    "RootGeneratingSystem simple_roots": (lambda x: _system([(2, -1), (-1, x)], [(1, 0), (0, 1)]), 2),
    "RootGeneratingSystem simple_coroots": (lambda x: _system([(2, -1), (-1, 2)], [(x, 0), (0, 1)]), 1),
}


@pytest.mark.parametrize("bad", [1.0, True, None], ids=repr)
@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_refuses_what_is_no_rational(name, bad):
    reader, _ = READERS[name]
    with pytest.raises(FormatError):
        reader(bad)


@pytest.mark.parametrize("name", sorted(READERS))
def test_reader_takes_int_fraction_and_string_alike(name):
    reader, good = READERS[name]
    good = F(good)
    forms = [good, f"{good.numerator}/{good.denominator}"] + ([good.numerator] if good.denominator == 1 else [])
    results = [reader(x) for x in forms]
    assert all(r == results[0] for r in results)


def test_make_path_reads_a_string_shape_as_its_fraction():
    words, times = [(0,), ()], [0, H, 1]
    assert paths.make_path(A2, ("3/2", 1), (0, 0), words, times) == paths.make_path(A2, (F(3, 2), 1), (0, 0), words, times)
    with pytest.raises(FormatError, match="not a rational literal: 1.1"):  # not 2476979795053773/2251799813685248
        paths.make_path(A2, (1.1, 1.0), (0, 0), words, times)


TOP = paths.straight_path(A2, (1, 1))

INDEX_READERS = {
    "normalize_word": lambda i: A2.normalize_word((i,)),
    "root_operator": lambda i: paths.root_operator("f", i, TOP),
    "simple_reflection": lambda i: A2.simple_reflection(i, (1, 0)),
    "simple_root_obj": A2.simple_root_obj,
    "is_left_descent": lambda i: A2.is_left_descent(i, IDENTITY),
    "galleries_of_type": lambda i: galleries.galleries_of_type(A2, (0, 0), (i,), (1, 1)),
    "minimal_gallery": lambda i: galleries.minimal_gallery(A2, (0, 0), (i,)),
}


@pytest.mark.parametrize("bad", [2, -1, 1.0, True, None], ids=repr)
@pytest.mark.parametrize("name", sorted(INDEX_READERS))
def test_index_reader_refuses_what_is_no_index(name, bad):
    INDEX_READERS[name](0)
    INDEX_READERS[name](1)
    with pytest.raises(FormatError, match=f"generator index {bad} out of range"):
        INDEX_READERS[name](bad)


def test_normalize_word_refuses_a_float_letter_its_memo_would_match():
    system = RootGeneratingSystem.from_gcm([[2, -1], [-1, 2]])
    assert system.normalize_word((1,)).word == (1,)
    with pytest.raises(FormatError, match="generator index 1.0 out of range"):  # (1.0,) hashes like (1,)
        system.normalize_word((1.0,))
