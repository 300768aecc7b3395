"""Dense-route op of the benchmark: pointwise Chern forms of the c-plane-uv model.

    python3 perfbench/dense_op.py INPUT.json OUTPUT.json
    python3 perfbench/dense_op.py --import-only

INPUT holds ``thetas`` and ``points`` (each point is [Re u, Im u, Re v, Im v]).
For every theta and every point, in that order, the op calls
``equivariant.chern_form`` (the dense ``super_exp`` route, which the CLI never
reaches) and writes the coefficients the acceptance-1 closed form predicts,
plus the largest coefficient of any other component.  The benchmark checks
OUTPUT; this file only runs the program.  ``--import-only`` stops after the
imports, which is what ``setup_s`` times for this workload.
"""

import json
import sys

from equichern.equivariant import chern_form
from equichern.geometry import builtin_model

# Components of the closed form, as generator words.
WORDS = {
    "1": (),
    "dubar^du": ("dubar", "du"),
    "dvbar^dv": ("dvbar", "dv"),
    "dubar^du^dvbar^dv": ("dubar", "du", "dvbar", "dv"),
}


def main(argv) -> int:
    if argv == ["--import-only"]:
        return 0
    src, dst = argv
    with open(src, encoding="utf-8") as fh:
        spec = json.load(fh)
    model = builtin_model("c-plane-uv")
    masks = {model.algebra.mask_of(w)[0] for w in WORDS.values()}
    rows = []
    for theta in spec["thetas"]:
        for ur, ui, vr, vi in spec["points"]:
            form = chern_form(model, theta, {"u": complex(ur, ui), "v": complex(vr, vi)})
            coeffs = {}
            for key, word in WORDS.items():
                c = form.coefficient(word)
                coeffs[key] = [c.real, c.imag]
            other = max((abs(c) for m, c in form.terms.items() if m not in masks),
                        default=0.0)
            rows.append({"coefficients": coeffs, "other": other})
    with open(dst, "w", encoding="utf-8") as fh:
        json.dump({"rows": rows}, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
