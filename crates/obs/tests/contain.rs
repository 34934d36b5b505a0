//! The process-wide containment hook: contained panics stay silent on
//! their own thread, and a panic outside containment still reaches the
//! hook that was installed before it.
//!
//! One `#[test]` per binary on purpose: the panic hook is process-wide
//! state, and this test installs its own hook before `contain` runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

static REPORTED: AtomicUsize = AtomicUsize::new(0);

#[test]
fn concurrent_contained_panics_never_silence_an_uncontained_one() {
    std::panic::set_hook(Box::new(|_| {
        REPORTED.fetch_add(1, Ordering::SeqCst);
    }));

    // Two threads panic inside containment at the same time, many times
    // over, so their enter/leave sequences interleave.
    let barrier = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|t| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..200 {
                    let caught = pst_obs::contain::contain(|| -> u32 {
                        if i % 2 == 0 {
                            panic!("contained {t}/{i}");
                        }
                        i
                    });
                    match caught {
                        Ok(v) => assert_eq!(v, i),
                        Err(message) => assert_eq!(message, format!("contained {t}/{i}")),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("containment never lets a panic escape");
    }
    assert_eq!(
        REPORTED.load(Ordering::SeqCst),
        0,
        "contained panics must not reach the previous hook"
    );

    // A panic outside containment still reaches the hook installed
    // before `contain` ever ran.
    let outside = std::thread::spawn(|| panic!("uncontained")).join();
    assert!(outside.is_err());
    assert_eq!(REPORTED.load(Ordering::SeqCst), 1);

    // Nested containment stays silent and unwinds only the inner unit.
    let nested = pst_obs::contain::contain(|| pst_obs::contain::contain(|| panic!("inner")));
    assert_eq!(nested, Ok(Err("inner".to_string())));
    assert_eq!(REPORTED.load(Ordering::SeqCst), 1);
}
