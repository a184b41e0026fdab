"""Count the lines of ``src/asymloc/*.py`` by kind and print one summary line.

    python3 tools/src_lines.py [CHECKOUT]

``CHECKOUT`` defaults to the checkout this script sits in; pass another
checkout's root to compare a change with its parent. The output reads
``src/ lines: <total> (<n> code, <n> docstring, <n> comment, <n> blank)``.
A blank line inside a docstring counts as blank, and a comment as a comment
only when it fills its line, so a docstring trim cannot pass for a code
reduction.
"""

import ast
import glob
import io
import os
import sys
import tokenize


def count(root: str) -> dict[str, int]:
    n = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for path in sorted(glob.glob(os.path.join(root, "src", "asymloc", "*.py"))):
        with open(path) as fh:
            text = fh.read()
        kind = ["code" if line.strip() else "blank" for line in text.splitlines()]
        for node in ast.walk(ast.parse(text)):
            body = getattr(node, "body", None)
            if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                for i in range(body[0].lineno - 1, body[0].end_lineno):
                    if kind[i] == "code":
                        kind[i] = "docstring"
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT and tok.line.lstrip().startswith("#"):
                kind[tok.start[0] - 1] = "comment"
        for k in kind:
            n[k] += 1
    return n


def main(argv: list[str]) -> None:
    root = argv[1] if len(argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    n = count(root)
    split = ", ".join(f"{v} {k}" for k, v in n.items())
    print(f"src/ lines: {sum(n.values())} ({split})")


if __name__ == "__main__":
    main(sys.argv)
