"""Randomized differential testing.

A hypothesis strategy generates small, well-defined mini-C programs
(bounded loops, in-bounds subscripts, no division) together with a
Python *oracle* evaluation of the same program.  Each program is then:

1. compiled and interpreted — final global memory must match the oracle
   exactly (frontend + interpreter correctness);
2. optimized (copy-prop / const-fold / DCE) and re-interpreted — the
   optimized module must produce identical memory with no more executed
   instructions (pass soundness);
3. traced — the DDG must respect the topological-order invariant.
"""

from hypothesis import given, settings, strategies as st

from repro.ddg import build_ddg
from repro.frontend import compile_source
from repro.interp import run_and_trace, run_module
from repro.ir.passes import optimize_module

N = 12  # array extent


class Assign:
    """target[idx] = reduce(op, terms); all arithmetic in doubles."""

    def __init__(self, target, idx_coeffs, terms, op):
        self.target = target          # "A" | "B" | "C"
        self.idx_coeffs = idx_coeffs  # (ci, cj, c0) -> (ci*i + cj*j + c0) % N
        self.terms = terms            # list of ("lit", float) | ("arr", name, coeffs)
        self.op = op                  # "+" | "*" | "-"


@st.composite
def programs(draw):
    depth = draw(st.integers(min_value=1, max_value=2))
    bounds = [draw(st.integers(min_value=1, max_value=6))
              for _ in range(depth)]
    coeff = st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=N - 1),
    )
    lits = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False,
                     width=32)
    term = st.one_of(
        st.tuples(st.just("lit"), lits),
        st.tuples(st.just("arr"), st.sampled_from("ABC"), coeff),
    )
    n_assigns = draw(st.integers(min_value=1, max_value=4))
    assigns = []
    for _ in range(n_assigns):
        assigns.append(Assign(
            target=draw(st.sampled_from("ABC")),
            idx_coeffs=draw(coeff),
            terms=draw(st.lists(term, min_size=1, max_size=3)),
            op=draw(st.sampled_from("+*-")),
        ))
    return depth, bounds, assigns


def _idx_src(coeffs, depth):
    ci, cj, c0 = coeffs
    parts = [f"{ci} * i"]
    if depth > 1:
        parts.append(f"{cj} * j")
    parts.append(str(c0))
    return f"({' + '.join(parts)}) % {N}"


def _term_src(t, depth):
    if t[0] == "lit":
        return repr(float(t[1]))
    _, name, coeffs = t
    return f"{name}[{_idx_src(coeffs, depth)}]"


def to_source(program):
    depth, bounds, assigns = program
    body_lines = []
    for a in assigns:
        expr = f" {a.op} ".join(_term_src(t, depth) for t in a.terms)
        body_lines.append(
            f"{a.target}[{_idx_src(a.idx_coeffs, depth)}] = {expr};"
        )
    body = "\n      ".join(body_lines)
    inner = f"""
    L0: for (i = 0; i < {bounds[0]}; i++) {{
      {"Lj: for (j = 0; j < %d; j++) {" % bounds[1] if depth > 1 else ""}
      {body}
      {"}" if depth > 1 else ""}
    }}
"""
    return f"""
double A[{N}];
double B[{N}];
double C[{N}];

int main() {{
  int i, j;
  for (i = 0; i < {N}; i++) {{
    A[i] = 0.25 * (double)i;
    B[i] = 1.0 - 0.125 * (double)i;
    C[i] = 0.0;
  }}
{inner}
  return 0;
}}
"""


def oracle(program):
    depth, bounds, assigns = program
    mem = {
        "A": [0.25 * i for i in range(N)],
        "B": [1.0 - 0.125 * i for i in range(N)],
        "C": [0.0] * N,
    }

    def idx(coeffs, i, j):
        ci, cj, c0 = coeffs
        return (ci * i + (cj * j if depth > 1 else 0) + c0) % N

    def term_value(t, i, j):
        if t[0] == "lit":
            return float(t[1])
        _, name, coeffs = t
        return mem[name][idx(coeffs, i, j)]

    def run_body(i, j):
        for a in assigns:
            value = term_value(a.terms[0], i, j)
            for t in a.terms[1:]:
                other = term_value(t, i, j)
                if a.op == "+":
                    value = value + other
                elif a.op == "-":
                    value = value - other
                else:
                    value = value * other
            mem[a.target][idx(a.idx_coeffs, i, j)] = value

    for i in range(bounds[0]):
        if depth > 1:
            for j in range(bounds[1]):
                run_body(i, j)
        else:
            run_body(i, 0)
    return mem


def read_globals(module, interp):
    out = {}
    for name in ("A", "B", "C"):
        gv = module.globals[name]
        out[name] = interp.memory.read_flat(
            interp.global_addr[name], gv.type
        )
    return out


@given(programs())
@settings(max_examples=60, deadline=None)
def test_interpreter_matches_python_oracle(program):
    source = to_source(program)
    module = compile_source(source)
    _, interp = run_module(module)
    measured = read_globals(module, interp)
    expected = oracle(program)
    assert measured == expected


@given(programs())
@settings(max_examples=40, deadline=None)
def test_optimizer_preserves_generated_programs(program):
    source = to_source(program)
    plain = compile_source(source)
    _, interp1 = run_module(plain)

    optimized = compile_source(source)
    optimize_module(optimized)
    _, interp2 = run_module(optimized)

    assert read_globals(plain, interp1) == read_globals(optimized, interp2)
    assert interp2.executed_instructions <= interp1.executed_instructions


@given(programs())
@settings(max_examples=25, deadline=None)
def test_traces_of_generated_programs_are_well_formed(program):
    source = to_source(program)
    module = compile_source(source)
    trace = run_and_trace(module)
    ddg = build_ddg(trace)  # raises if edges violate topological order
    # Loop markers must balance.
    depth = 0
    for m in trace.marker_rows:
        if trace.opcodes[m] == 70:
            depth += 1
        elif trace.opcodes[m] == 72:
            depth -= 1
        assert depth >= 0
    assert depth == 0
    assert len(ddg) > 0
