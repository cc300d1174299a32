"""PORT — the portability claim of §4.

"Using the module on the system with different size of the dual-port
memory (e.g., the Altera devices EPXA4 and EPXA10) would require only
recompiling the module.  The user application would immediately benefit
without need to recompile."  Both applications run, completely
unchanged, on all three SoC presets; larger interface memories absorb
the working set and the fault count drops to zero.
``python -m repro portability`` prints the table.
"""

from repro.exp import portability
from repro.exp.spec import CellConfig


def test_port_same_binaries_across_devices():
    results = {
        "adpcm-8KB": portability(CellConfig(app="adpcm", input_bytes=8 * 1024)),
        "idea-32KB": portability(CellConfig(app="idea", input_bytes=32 * 1024)),
    }
    for name, rows in results.items():
        assert [r.config.soc for r in rows] == ["EPXA1", "EPXA4", "EPXA10"], name
        # The EPXA1 faults on these sizes; the EPXA10 never does.
        assert rows[0].page_faults > 0, name
        assert rows[-1].page_faults == 0, name
        # More interface memory never hurts.
        assert rows[-1].vim_ms <= rows[0].vim_ms, name
