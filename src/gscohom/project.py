"""Self-contained JSON project files: category, algebras, presheaf,
named cochains, modules and descent data.

The one home of the format: it reads every block, reports each malformed
entry as a SchemaError at its JSON path, and writes the blocks back.
Rationals are serialized as strings "p/q" (or "p" when the denominator is
one); matrices as lists of rows of such strings.  Categories are given
either as a poset ("relations": pairs [V, U] meaning V <= U) or explicitly
with a composition table.  A twist key "u;v" names c^{u,v} at u o v, so v
ends where u starts; a c1 key "u;v" names the 2-simplex (u, v), so u ends
where v starts.  The loader rewrites any algebra whose unit is not a basis
vector into an equivalent basis containing the unit, and `_Coordinates`
moves every element and map the file gives to that basis.
"""

import json
from fractions import Fraction

from .linalg import RatMatrix
from .fincat import (FiniteCategory, InvalidCategory, Morphism,
                     poset_category, MeetPoset, NoMeet, NotAntisymmetric,
                     UnknownObject, simplex_label)
from .algebra import FinAlgebra, FinModule, InvalidStructure
from .presheaf import TwistedPresheaf

SCHEMA = "gscohom-project/1"


class SchemaError(Exception):
    """The project file violates the input schema; the message carries a
    JSON-pointer-style path."""


def parse_rat(s, path="?"):
    """An exact rational from a string "p/q" or "p", an int or a Fraction;
    anything else, a JSON float or a bool included, is a SchemaError."""
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError("%s: cannot parse rational %r" % (path, s))


def rat_str(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def parse_matrix(rows, path="?"):
    if not isinstance(rows, list) or not rows:
        raise SchemaError("%s: matrix must be a nonempty list of rows" % path)
    if any(not isinstance(row, list) or len(row) != len(rows[0])
           for row in rows):
        raise SchemaError("%s: rows must be lists of equal length" % path)
    parsed = [[parse_rat(v, path) for v in row] for row in rows]
    return RatMatrix.from_rows(parsed)


def matrix_json(mat):
    return [[rat_str(v) for v in row] for row in mat.to_rows()]


def vector_json(vec):
    return [rat_str(v) for v in vec]


def parse_vector(vals, path="?"):
    if not isinstance(vals, (list, tuple)):
        raise SchemaError("%s: expected a list of rationals" % path)
    return tuple(parse_rat(v, path) for v in vals)


def _sized_matrix(rows, path, shape):
    """parse_matrix(rows, path), checked by `_shaped`."""
    return _shaped(parse_matrix(rows, path), path, shape)


def _shaped(mat, path, shape):
    """The matrix mat, or a SchemaError at path when it is not
    shape = (rows, cols)."""
    if (mat.rows, mat.cols) != shape:
        raise SchemaError("%s: expected a %d x %d matrix, got %d x %d"
                          % ((path,) + shape + (mat.rows, mat.cols)))
    return mat


def _sized_vector(vals, path, length):
    """parse_vector(vals, path), or a SchemaError at path when the vector
    does not have `length` entries."""
    vec = parse_vector(vals, path)
    if len(vec) != length:
        raise SchemaError("%s: expected %d entries, got %d"
                          % (path, length, len(vec)))
    return vec


def _required(block, key, path):
    """block[key], or a SchemaError at path/key when it is absent."""
    if key not in block:
        raise SchemaError("%s/%s: missing" % (path, key))
    return block[key]


def _object(value, path):
    """value, or a SchemaError at path when it is not a JSON object."""
    if not isinstance(value, dict):
        raise SchemaError("%s: expected an object" % path)
    return value


def _list(value, path):
    """value, or a SchemaError at path when it is not a JSON array."""
    if not isinstance(value, list):
        raise SchemaError("%s: expected a list" % path)
    return value


def _name(block, key, path):
    """The string block[key], or a SchemaError at path/key when it is
    absent or not a string."""
    value = _required(block, key, path)
    if not isinstance(value, str):
        raise SchemaError("%s/%s: expected a name, got %r"
                          % (path, key, value))
    return value


def _objects(block):
    """The object names of the category block; a name listed twice is a
    SchemaError at its second place."""
    numbered = dict(enumerate(_list(_required(block, "objects", "/category"),
                                    "/category/objects")))
    names = []
    for k in numbered:
        name = _name(numbered, k, "/category/objects")
        if name in names:
            raise SchemaError("/category/objects/%d: %r is listed twice"
                              % (k, name))
        names.append(name)
    return names


def _entries(block, key, path):
    """The items of the optional object block[key], or a SchemaError at
    path/key when it is not a JSON object."""
    return _object(block.get(key, {}), "%s/%s" % (path, key)).items()


def _known(name, names, path):
    """name, or a SchemaError at path when it is not among names."""
    if name not in names:
        raise SchemaError("%s: unknown %r" % (path, name))
    return name


def _relations(block):
    """The poset relations [V, U] of the category block, as pairs."""
    pairs = []
    for k, rel in enumerate(_list(block["relations"], "/category/relations")):
        if not (isinstance(rel, list) and len(rel) == 2):
            raise SchemaError("/category/relations/%d: expected [V, U]" % k)
        pairs.append(tuple(rel))
    return pairs


def _pair_key(key, path):
    """Composable-pair keys: canonical "u;v", with "(u,v)" also accepted."""
    if key.startswith("(") and key.endswith(")") and ";" not in key:
        inner = key[1:-1]
        if inner.count(",") == 1:
            u, v = inner.split(",")
            return u.strip(), v.strip()
    if key.count(";") != 1:
        raise SchemaError("%s: expected 'u;v'" % path)
    u, v = key.split(";")
    return u, v


def _arrow_pair(key, path, category, composite):
    """The arrows (u, v) that the pair key names, or a SchemaError at path
    when one is unknown or they do not compose: v must end where u starts
    when `composite` (a twist at u o v), else u where v starts."""
    u, v = (_known(a, category.morphisms, path) for a in _pair_key(key, path))
    first, then = (v, u) if composite else (u, v)
    if category.target(first) != category.source(then):
        raise SchemaError("%s: %s does not end where %s starts, so the pair "
                          "does not compose" % (path, first, then))
    return u, v


class _Coordinates:
    """Moves each value given in the file's basis of an algebra, after
    checking its shape, to the basis of `FinAlgebra.rebased_with_unit`:
    with change[obj] from the new coordinates of A(obj) to the file's, an
    element x becomes change^-1 x and a map A(V_1) (x) ... -> A(U) becomes
    change[U]^-1 phi (change[V_1] (x) ...)."""

    def __init__(self, change):
        self._change = change
        self._inverse = {obj: c.inverse() for obj, c in change.items()}

    def element(self, obj, values, path):
        """The element of A(obj) given at path as a list of rationals."""
        inverse = self._inverse[_known(obj, self._inverse, path)]
        return inverse.apply(_sized_vector(values, path, inverse.rows))

    def map(self, rows, path, into, *out_of):
        """The linear map A(out_of[0]) (x) ... -> A(into) given at path as
        a matrix."""
        inverse = self._inverse[_known(into, self._inverse, path)]
        change = self._change[out_of[0]]
        for obj in out_of[1:]:
            change = change.kron(self._change[obj])
        mat = _sized_matrix(rows, path, (inverse.rows, change.rows))
        return inverse @ mat @ change


class Project:
    """A loaded project: category (plus meet-poset view when available),
    presheaf, and the named cochains, modules and descent data."""

    def __init__(self, category, poset, presheaf, cochains, modules, data):
        self.category = category
        self.poset = poset
        self.presheaf = presheaf
        self.cochains = cochains
        self.modules = modules
        self.data = data

    def meet_poset(self):
        """The meet-poset view of the category, which the Cech complex
        needs, or a SchemaError when the category has none."""
        if self.poset is None:
            raise SchemaError("/category: the Cech complex needs a poset "
                              "with binary meets")
        return self.poset

    def cochain(self, name, kind):
        """The cochain block `name` as a `deform.CandidateTriple` (kind
        "triple", an (m1, f1, c1) block) or a `deform.EquivalencePair`
        (kind "pair", a (g1, tau1) block)."""
        if name not in self.cochains:
            raise SchemaError("/cochains/%s: not present" % name)
        found, blocks = self.cochains[name]
        if found != kind:
            raise SchemaError("/cochains/%s: expected %s block" % (
                name, "an (m1, f1, c1)" if kind == "triple"
                else "a (g1, tau1)"))
        from .deform import CandidateTriple, EquivalencePair
        build = CandidateTriple if kind == "triple" else EquivalencePair
        return build(self.presheaf, **blocks)

    def datum(self, name):
        """The descent datum `name` as a `descent.PreDescentDatum`: the
        free one with the given trivialization (type "free"), or else the
        named module per object and the map phi_u per morphism u (type
        "explicit"), which must be dim M_V x dim(M_U (x)_u A(V)).  The
        block was checked when the project loaded (`_load_datum`), but
        for that shape, which needs the tensor quotient."""
        path = "/data/%s" % name
        if name not in self.data:
            raise SchemaError("%s: not present" % path)
        from .descent import (DescentMachine, PreDescentDatum,
                              canonical_free_datum)
        machine = DescentMachine(self.presheaf)
        kind, parts = self.data[name]
        if kind == "free":
            return canonical_free_datum(machine, parts)
        modules, maps = parts
        for mname, m in self.category.morphisms.items():
            shape = (modules[m.source].dim,
                     machine.tensor(modules[m.target], mname).dim)
            _shaped(maps[mname], "%s/maps/%s" % (path, mname), shape)
        return PreDescentDatum(machine, modules, maps)


def _load_category(block):
    if "relations" in block:
        return poset_category(_objects(block), _relations(block))
    morphisms = []
    for k, m in enumerate(_list(_required(block, "morphisms", "/category"),
                                "/category/morphisms")):
        path = "/category/morphisms/%d" % k
        morphisms.append(Morphism(*(_name(_object(m, path), key, path)
                                    for key in Morphism._fields)))
    path = "/category/composition"
    table = _object(_required(block, "composition", "/category"), path)
    comp = {_pair_key(key, "%s/%s" % (path, key)): _name(table, key, path)
            for key in table}
    path = "/category/identities"
    table = _object(_required(block, "identities", "/category"), path)
    identities = {obj: _name(table, obj, path) for obj in table}
    try:
        return FiniteCategory(_objects(block), morphisms, comp, identities)
    except InvalidCategory as exc:
        raise SchemaError("/category: %s" % exc)


def _load_algebra(name, block):
    path = "/algebras/%s" % name
    _object(block, path)
    dim = len(_list(_required(block, "basis", path), path + "/basis"))
    if dim == 0:
        # the zero ring, where 1 = 0: no basis vector can be the unit
        raise SchemaError("%s/basis: expected at least one basis element"
                          % path)
    zero = [Fraction(0)] * dim
    mult = [[list(zero) for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for entry in _list(_required(block, "mult", path), path + "/mult"):
        i, j, coeffs = entry if isinstance(entry, list) and len(entry) == 3 \
            else (None, None, None)
        if not (type(i) is type(j) is int and 0 <= i < dim and 0 <= j < dim
                and isinstance(coeffs, list) and len(coeffs) == dim):
            raise SchemaError("%s/mult: bad entry %r" % (path, entry))
        if (i, j) in seen:
            raise SchemaError("%s/mult: duplicate pair (%d, %d)" % (path, i, j))
        seen.add((i, j))
        mult[i][j] = [parse_rat(c, path) for c in coeffs]
    unit = parse_vector(_required(block, "unit", path), path + "/unit")
    try:
        alg = FinAlgebra(dim, mult, unit, name=name)
    except InvalidStructure as exc:
        raise SchemaError("%s: %s" % (path, exc))
    return alg.rebased_with_unit()


def load_project(path_or_dict):
    if isinstance(path_or_dict, dict):
        raw = path_or_dict
    else:
        with open(path_or_dict) as fh:
            raw = json.load(fh)
    _object(raw, "/")
    if raw.get("schema") != SCHEMA:
        raise SchemaError("/schema: expected %r" % SCHEMA)
    for key in ("category", "algebras", "presheaf"):
        if key not in raw:
            raise SchemaError("/%s: missing block" % key)
        _object(raw[key], "/" + key)
    poset = None
    if "relations" in raw["category"]:
        try:
            poset = MeetPoset(_objects(raw["category"]),
                              _relations(raw["category"]))
        except NoMeet:
            poset = None
        except (NotAntisymmetric, UnknownObject) as exc:
            raise SchemaError("/category/relations: %s" % exc)
    # share one category instance between the poset and presheaf views
    category = poset.category if poset is not None \
        else _load_category(raw["category"])

    algebras = {}
    changes = {}
    for name, block in raw["algebras"].items():
        algebras[name], changes[name] = _load_algebra(name, block)

    pblock = raw["presheaf"]
    assignment = _object(_required(pblock, "algebras", "/presheaf"),
                         "/presheaf/algebras")
    given = _object(_required(pblock, "restrictions", "/presheaf"),
                    "/presheaf/restrictions")
    for obj in category.objects:
        if _name(assignment, obj, "/presheaf/algebras") not in algebras:
            raise SchemaError("/presheaf/algebras/%s: unknown algebra %r"
                              % (obj, assignment[obj]))
    alg_of = {obj: algebras[assignment[obj]] for obj in category.objects}
    chg = {obj: changes[assignment[obj]] for obj in category.objects}
    coords = _Coordinates(chg)

    restrictions = {}
    for name in category.morphisms:
        m = category.morphisms[name]
        if name not in given:
            if m.source == m.target and category.is_identity(name):
                restrictions[name] = RatMatrix.identity(alg_of[m.source].dim)
                continue
            raise SchemaError("/presheaf/restrictions/%s: missing" % name)
        restrictions[name] = coords.map(given[name],
                                        "/presheaf/restrictions/%s" % name,
                                        m.source, m.target)

    twists = {}
    for key, coeffs in _entries(pblock, "twists", "/presheaf"):
        where = "/presheaf/twists/%s" % key
        u, v = _arrow_pair(key, where, category, composite=True)
        twists[(u, v)] = coords.element(category.source(v), coeffs, where)
    z = {obj: coords.element(obj, coeffs, "/presheaf/z/%s" % obj)
         for obj, coeffs in _entries(pblock, "z", "/presheaf")}
    presheaf = TwistedPresheaf(category, alg_of, restrictions, twists, z)

    cochains = {name: _load_cochain(name, block, category, coords)
                for name, block in _entries(raw, "cochains", "")}
    modules = {}
    for name, block in _entries(raw, "modules", ""):
        path = "/modules/%s" % name
        obj = _required(_object(block, path), "object", path)
        if obj not in category.objects:
            raise SchemaError("%s/object: unknown %r" % (path, obj))
        alg = alg_of[obj]
        dim = _required(block, "dim", path)
        if type(dim) is not int or dim < 0:
            raise SchemaError("%s/dim: expected a non-negative integer, got %r"
                              % (path, dim))
        mats = _required(block, "action", path)
        if not isinstance(mats, list):
            raise SchemaError("%s/action: expected a list of matrices" % path)
        if len(mats) != alg.dim:
            raise SchemaError("%s/action: need one matrix per basis element"
                              % path)
        raw_action = []
        for k, m in enumerate(mats):
            raw_action.append(_sized_matrix(m, "%s/action/%d" % (path, k),
                                            (dim, dim)))
        action = []
        for j in range(alg.dim):
            col = chg[obj].column(j)
            acc = RatMatrix.zeros(dim, dim)
            for k, c in enumerate(col):
                if c:
                    acc = acc + raw_action[k].scale(c)
            action.append(acc)
        try:
            modules[name] = (obj, FinModule(alg, dim, action))
        except InvalidStructure as exc:
            raise SchemaError("%s: not a module: %s" % (path, exc))
    data = {name: _load_datum(name, block, category, modules, coords)
            for name, block in _entries(raw, "data", "")}
    return Project(category, poset, presheaf, cochains, modules, data)


def _load_cochain(name, block, category, coords):
    """(kind, blocks) of the cochain block `name`: ("triple", m1, f1 and
    c1) or ("pair", g1 and tau1), in the re-based coordinates."""
    path = "/cochains/%s" % name
    _object(block, path)
    if "m1" in block or "f1" in block or "c1" in block:
        m1 = {obj: coords.map(rows, path + "/m1/" + obj, obj, obj, obj)
              for obj, rows in _entries(block, "m1", path)}
        f1 = {}
        for mname, rows in _entries(block, "f1", path):
            where = path + "/f1/" + mname
            m = category.morphisms[_known(mname, category.morphisms, where)]
            f1[mname] = coords.map(rows, where, m.source, m.target)
        c1 = {}
        for key, coeffs in _entries(block, "c1", path):
            where = path + "/c1/" + key
            u1, u2 = _arrow_pair(key, where, category, composite=False)
            c1[(u1, u2)] = coords.element(category.source(u1), coeffs, where)
        return "triple", {"m1": m1, "f1": f1, "c1": c1}
    if "g1" in block or "tau1" in block:
        g1 = {obj: coords.map(rows, path + "/g1/" + obj, obj, obj)
              for obj, rows in _entries(block, "g1", path)}
        tau1 = {}
        for mname, coeffs in _entries(block, "tau1", path):
            where = path + "/tau1/" + mname
            src = category.source(_known(mname, category.morphisms, where))
            tau1[mname] = coords.element(src, coeffs, where)
        return "pair", {"g1": g1, "tau1": tau1}
    raise SchemaError("%s: expected (m1, f1, c1) or (g1, tau1)" % path)


def _load_datum(name, block, category, modules, coords):
    """(kind, parts) of the descent datum block `name`: ("free", the
    trivialization {u: element of A(source u)}), or ("explicit",
    ({object: its named module}, {u: phi_u})), each module one of the
    project's at that object and phi_u a matrix per morphism u."""
    path = "/data/%s" % name
    _object(block, path)
    kind = _name(block, "type", path)
    if kind == "free":
        trivialization = {}
        for mname, coeffs in _entries(block, "trivialization", path):
            where = "%s/trivialization/%s" % (path, mname)
            src = category.source(_known(mname, category.morphisms, where))
            trivialization[mname] = coords.element(src, coeffs, where)
        return kind, trivialization
    if kind != "explicit":
        raise SchemaError("%s/type: expected 'free' or 'explicit', got %r"
                          % (path, kind))
    given = _object(_required(block, "modules", path), path + "/modules")
    named = {}
    for obj in category.objects:
        where = "%s/modules/%s" % (path, obj)
        mobj, named[obj] = modules[_known(_name(given, obj, path + "/modules"),
                                          modules, where)]
        if mobj != obj:
            raise SchemaError("%s: module lives at %s" % (where, mobj))
    given = _object(_required(block, "maps", path), path + "/maps")
    for mname in given:
        _known(mname, category.morphisms, "%s/maps/%s" % (path, mname))
    maps = {mname: parse_matrix(_required(given, mname, path + "/maps"),
                                "%s/maps/%s" % (path, mname))
            for mname in category.morphisms}
    return kind, (named, maps)


# -- writers (used by the preset generator, the command line and tests)

def algebra_json(alg, basis_names=None):
    mult = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            coeffs = alg.mult[i][j]
            if any(coeffs):
                mult.append([i, j, [rat_str(c) for c in coeffs]])
    return {
        "basis": basis_names or ["e%d" % i for i in range(alg.dim)],
        "mult": mult,
        "unit": vector_json(alg.unit),
    }


def presheaf_json(presheaf, algebra_names):
    cat = presheaf.category
    out = {
        "algebras": {obj: algebra_names[obj] for obj in cat.objects},
        "restrictions": {name: matrix_json(mat)
                         for name, mat in presheaf.restrictions.items()},
    }
    twists = {"%s;%s" % key: vector_json(val)
              for key, val in presheaf.twists.items()}
    if twists:
        out["twists"] = twists
    zs = {obj: vector_json(val) for obj, val in presheaf.z.items()}
    if zs:
        out["z"] = zs
    return out


def deformation_json(presheaf):
    """A twisted presheaf with each algebra written out in place (its
    dim, mult and unit, no basis names), its restrictions and its twists,
    as `gscohom deform` reports a deformation."""
    return {"algebras": {obj: {"dim": alg.dim,
                               "mult": algebra_json(alg)["mult"],
                               "unit": vector_json(alg.unit)}
                         for obj, alg in presheaf.algebras.items()},
            "restrictions": {name: matrix_json(mat)
                             for name, mat in presheaf.restrictions.items()},
            "twists": {"%s;%s" % key: vector_json(val)
                       for key, val in presheaf.twists.items()}}


def cochain_json(theta):
    """A GS cochain as {"(p,q)": {simplex label: matrix}}, one entry per
    bidegree and its zero blocks left out."""
    out = {}
    for (p, q), blocks in sorted(theta.components.items()):
        out["(%d,%d)" % (p, q)] = {simplex_label(key): matrix_json(mat)
                                   for key, mat in sorted(blocks.items())
                                   if not mat.is_zero()}
    return out
