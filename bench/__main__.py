import time

# Taken before anything heavy is imported: ``setup_s`` of the batch
# workloads counts from here.
T0 = time.perf_counter()

if __name__ == "__main__":
    from .cli import main

    raise SystemExit(main(t0=T0))
