//! Processor time, the clock behind the gated cost figures.
//!
//! On a shared machine the wall time of the same run moves with the
//! other tenants: while the host gives this machine's cores to someone
//! else, a run waits without working. Measured on a shared 2-core
//! machine, the median wall time of a `warm-edit` assessment spread by a
//! fifth between runs of the same code, its processor time by a
//! twentieth. Processor time still counts every instruction the program
//! runs on every thread, so work added anywhere in it shows. It does not
//! remove a slowdown of every core, which moves both clocks alike.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const PROCESS_CLOCK: i32 = 2;
const THREAD_CLOCK: i32 = 3;

fn read(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Processor time used so far by every thread of this process, exited
/// threads included, in seconds.
pub fn process_seconds() -> f64 {
    read(PROCESS_CLOCK)
}

/// Processor time used so far by the calling thread, in seconds.
pub fn thread_seconds() -> f64 {
    read(THREAD_CLOCK)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Works until this thread's clock has advanced `seconds` (giving up
    /// after five wall-clock seconds); returns the advance.
    fn spin(seconds: f64) -> f64 {
        let (wall, t0) = (std::time::Instant::now(), thread_seconds());
        let mut x = 0u64;
        while thread_seconds() - t0 < seconds && wall.elapsed().as_secs() < 5 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        thread_seconds() - t0
    }

    #[test]
    fn busy_time_counts_and_sleep_does_not() {
        let (p0, t0) = (process_seconds(), thread_seconds());
        assert!(spin(0.02) >= 0.02, "the thread clock advances with work");
        let (p1, t1) = (process_seconds(), thread_seconds());
        assert!(
            p1 - p0 >= t1 - t0 - 1e-6,
            "the process clock covers the thread"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            thread_seconds() - t1 < 0.02,
            "sleeping is not processor time"
        );
    }

    #[test]
    fn the_process_clock_keeps_the_time_of_exited_threads() {
        let p0 = process_seconds();
        let used = std::thread::spawn(|| spin(0.02)).join().unwrap();
        assert!(used >= 0.02);
        assert!(process_seconds() - p0 >= used);
    }
}
