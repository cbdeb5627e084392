#!/usr/bin/env python3
"""Extending the framework: build and evaluate your own ECC scheme.

Implements a "PAIR-lite" variant (half-length segments: extended RS(128,120)
with t = 4, at the *same* 6.67% storage overhead) as a downstream user
would, then runs it through the exact reliability engine next to stock PAIR
- demonstrating why the paper stretches codewords as long as the row allows.

The only requirements on a new scheme are the EccScheme interface
(write_line / read_lines / overlays) - every engine in the library then works
with it unmodified.
"""

import numpy as np

from repro import PairScheme
from repro.dram import DDR5_X8
from repro.faults import FaultRates
from repro.reliability import ExactRunConfig, run_iid_batched


def main() -> None:
    # A custom geometry: half-length segments (the expandability knob).
    # PairScheme exposes the segmentation directly - a fully custom scheme
    # would subclass repro.schemes.EccScheme instead.
    lite = PairScheme(data_symbols=120, parity_symbols=8)
    stock = PairScheme()
    print(f"stock: ext-RS({stock.code.n},{stock.code.k}), "
          f"overhead {stock.storage_overhead:.2%}")
    print(f"lite:  ext-RS({lite.code.n},{lite.code.k}), "
          f"overhead {lite.storage_overhead:.2%}")

    # Functional check through the full datapath.
    rng = np.random.default_rng(0)
    chips = lite.make_devices()
    data = rng.integers(0, 2, lite.line_shape, dtype=np.uint8)
    lite.write_line(chips, 0, 0, 0, data)
    assert np.array_equal(lite.read_line(chips, 0, 0, 0).data, data)
    print("custom segmentation round-trips through the device model")

    # Exact Monte-Carlo at an elevated BER where failures are observable.
    rates = FaultRates(
        single_cell_ber=2e-3, row_faults_per_device=0.0,
        column_faults_per_device=0.0, pin_faults_per_device=0.0,
        mat_faults_per_device=0.0,
    )
    config = ExactRunConfig(trials=100, seed=1)
    print("\nexact Monte-Carlo at BER 2e-3 (100 reads each):")
    for scheme in (stock, lite):
        tally = run_iid_batched(scheme, rates, config)
        print(f"  {scheme.code.n:3d}-symbol segments: "
              f"ok+ce={tally.ok + tally.ce:3d}  due={tally.due:3d}  sdc={tally.sdc}")
    print("\nsame overhead, half the codeword length, half the correction")
    print("radius: the long expandable codeword is what buys PAIR its margin.")


if __name__ == "__main__":
    main()
