# Developer conveniences for the repro package.

.PHONY: install test bench perf figures figures-bench \
	paper-figures quicktest faults trace overhead fleet fleet-bench \
	bench-check checkpoint service chaos blame attrib-bench zoo clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

quicktest:
	pytest tests/ -x -q --ignore=tests/test_end_to_end.py

bench:
	pytest benchmarks/ --benchmark-only

perf:
	python benchmarks/perf/hotpath.py

faults:
	python -m repro faults --seed 2018 --runs 8 --jobs 2 --timeout 300

trace:
	python -m repro trace mvt --scale 0.2 --out trace.json --jsonl trace.jsonl

overhead:
	python benchmarks/perf/tracing_overhead.py

fleet:
	python -m repro fleet-report --workloads MVT,XSB --schedulers fcfs,simt \
		--seeds 2 --jobs 2 --progress --fleet-log fleet.jsonl \
		--out fleet_report.json --markdown fleet_report.md

fleet-bench:
	python benchmarks/perf/fleet_overhead.py

bench-check:
	python -m repro bench-check

# Scheduler-zoo comparison: WaSP/IRU/Mosaic vs the paper's policies
# plus the SMS DRAM controller, written to BENCH_zoo.json for the
# regression gate.
zoo:
	python benchmarks/perf/zoo.py

# Checkpoint/resume round trip: run with periodic state dumps, then
# resume the leftover mid-run checkpoint — both prints must agree.
checkpoint:
	python -m repro run mvt --scale 0.2 --wavefronts 16 \
		--checkpoint-every 5000 --checkpoint-path mvt.ckpt
	python -m repro resume mvt.ckpt

# Durable work-queue campaign: shard, drain with local workers, merge.
service:
	rm -rf campaign
	python -m repro service init campaign --workloads MVT,XSB \
		--schedulers fcfs,simt --seeds 2
	python -m repro service run campaign --workers 2
	python -m repro service status campaign

# The chaos gate: SIGKILL workers mid-spec plus a full-restart drill;
# fails unless the merged report is byte-identical to the serial run.
chaos:
	rm -rf chaos-campaign
	python -m repro service chaos chaos-campaign --seed 2018 --workers 2

# Text renderings of the paper tables/figures (quick terminal check).
paper-figures:
	python -m repro figure table1
	python -m repro figure table2
	python -m repro figure fig8_speedup

# The figure/report pipeline: tiny metrics campaign -> Vega-Lite specs,
# CSVs, and the self-contained HTML campaign report.
figures:
	rm -rf figures-campaign
	python -m repro service init figures-campaign --workloads MVT,XSB \
		--schedulers fcfs,simt --seeds 2 --metrics
	python -m repro service run figures-campaign --workers 2
	python -m repro figures figures-campaign
	@echo "open figures-campaign/report/campaign_report.html"

figures-bench:
	python benchmarks/perf/figures_pipeline.py

# Walk-latency blame: trace a small sweep, attribute every walk's
# cycles to pipeline stages, and write the merged report.  Exits
# nonzero if any walk's stages fail to sum to its end-to-end latency.
blame:
	python -m repro blame --workloads MVT,XSB --schedulers fcfs,simt \
		--seeds 2 --jobs 2 --out blame_report.json

attrib-bench:
	python benchmarks/perf/attrib_overhead.py

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
