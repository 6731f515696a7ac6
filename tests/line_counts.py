"""Print three line counts of the package source under src/:

- every line, as `wc -l` counts them;
- the lines outside module, class and function docstrings (by `ast`);
- those lines less blank and comment-only lines.

Run it from anywhere: python tests/line_counts.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def counts(text: str) -> tuple[int, int, int]:
    lines = text.splitlines()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = [line for i, line in enumerate(lines, 1) if i not in docs]
    bare = [line for line in code if line.strip() and not line.strip().startswith("#")]
    return len(lines), len(code), len(bare)


def main() -> None:
    total = [sum(c) for c in zip(*(counts(p.read_text()) for p in sorted(SRC.rglob("*.py"))))]
    print(*total)


if __name__ == "__main__":
    main()
