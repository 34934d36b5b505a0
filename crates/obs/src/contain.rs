//! Panic containment with one process-wide panic hook.
//!
//! `pst serve` and `pst fuzz` treat a panic inside one unit of work (a
//! request, a fuzz input) as data: it is caught, reported as a message,
//! and the process carries on. The default panic hook would still print
//! a backtrace banner to stderr for every such panic, so contained code
//! runs with the hook silenced.
//!
//! Swapping the hook around each unit (`take_hook` / `set_hook`) races
//! as soon as two threads do it: one thread can "restore" the silent
//! hook the other installed, which then silences every later panic in
//! the process. Instead, [`contain`] installs a single hook, once, that
//! forwards to the previously installed hook unless the *panicking
//! thread* is inside a contained unit. The flag is thread-local, so
//! containment on one thread never hides a panic on another.
//!
//! This is the only place in the workspace that touches the panic hook;
//! `scripts/verify.sh` enforces that.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    /// Nesting depth of [`contain`] calls on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

static INSTALL: Once = Once::new();

/// Installs the process-wide hook (idempotent). The hook stays silent
/// while the panicking thread is inside [`contain`] and otherwise
/// forwards to whatever hook was installed before the first call.
fn install() {
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if DEPTH.with(Cell::get) == 0 {
                previous(info);
            }
        }));
    });
}

/// Restores the depth counter however the contained closure ends.
struct Depth;

impl Depth {
    fn enter() -> Depth {
        DEPTH.with(|d| d.set(d.get() + 1));
        Depth
    }
}

impl Drop for Depth {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// Runs `f`, catching a panic and returning its message instead. The
/// panic hook stays silent for panics on this thread while `f` runs;
/// panics elsewhere in the process are reported as usual.
///
/// `f` is treated as unwind-safe: callers discard or quarantine any
/// state a panicking unit may have left half-updated.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install();
    let _depth = Depth::enter();
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| message(payload.as_ref()))
}

/// Best-effort extraction of a panic payload's message.
fn message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
