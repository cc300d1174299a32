"""FIG7 — coprocessor read-access timing diagram (paper Figure 7).

The paper: "four cycles are needed from the moment when the
coprocessor generates an access to the moment when the data is read or
written", with the waveform of clk / cp_addr / cp_access / cp_tlbhit /
cp_din.  This test regenerates the waveform and checks the edge count,
for both the prototype IMU and the announced pipelined variant
(``python -m repro fig7`` prints the diagram).
"""

from repro.exp import figure7


def test_fig7_read_access_timing():
    result = figure7()
    assert result.data_ready_edge == 4
    assert result.value_read == 0x2A


def test_fig7_pipelined_imu_timing():
    result = figure7(pipelined=True)
    assert result.data_ready_edge == 2
