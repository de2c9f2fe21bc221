import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_give_their_output():
    # doctest on the whole file would read each closing fence as output
    text = README.read_text(encoding="utf-8")
    blocks = [(text.count("\n", 0, m.start(1)), m.group(1)) for m in
              re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)]
    assert blocks
    runner = doctest.DocTestRunner()
    for lineno, block in blocks:
        test = doctest.DocTestParser().get_doctest(block, {}, README.name,
                                                   str(README), lineno)
        runner.run(test)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted >= 8 and failed == 0
