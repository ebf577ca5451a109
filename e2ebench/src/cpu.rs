//! Spreads a run over every CPU the benchmark may use.
//!
//! On a shared host, another tenant's load on the same physical core
//! slows this process's cache-bound code by up to about 1.8×, and each
//! vCPU carries its own such load. A single-threaded run left where the
//! scheduler first puts it measures one vCPU's load, so two runs of the
//! same code can differ by which vCPU each landed on. The harness
//! therefore moves itself to the next allowed CPU, in a fixed order,
//! before each segment of a run: every run averages all of them. The
//! order never depends on measured speed.
//!
//! Where the affinity calls are unavailable, the harness runs where the
//! scheduler puts it.

/// Rotates the calling thread over the CPUs it may use.
pub struct Rotation {
    cpus: Vec<usize>,
    next: usize,
}

impl Rotation {
    pub fn new() -> Self {
        Rotation {
            cpus: allowed_cpus(),
            next: 0,
        }
    }

    /// Moves the calling thread to the next CPU in turn. Call only
    /// between answers.
    pub fn advance(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        if pin(self.cpus[self.next]) {
            self.next = (self.next + 1) % self.cpus.len();
        } else {
            self.cpus.clear();
        }
    }
}

/// CPUs this thread may run on (at most 64), in ascending order.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn allowed_cpus() -> Vec<usize> {
    let mut mask: u64 = 0;
    let ret: isize;
    // SAFETY: sched_getaffinity(0, 8, &mut mask) writes at most 8 bytes
    // into `mask`, which is live and writable for the whole call, and
    // touches no other memory. The `syscall` instruction clobbers rcx
    // and r11, declared as such.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 204isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of::<u64>(),
            in("rdx") std::ptr::addr_of_mut!(mask),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret <= 0 {
        return Vec::new();
    }
    (0..64).filter(|i| mask & (1u64 << i) != 0).collect()
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Pins the calling thread to `cpu` (below 64); `false` if the kernel
/// refused.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin(cpu: usize) -> bool {
    let mask: u64 = 1 << cpu;
    let ret: isize;
    // SAFETY: sched_setaffinity(0, 8, &mask) reads 8 bytes from `mask`,
    // which is live for the whole call, and changes only the calling
    // thread's CPU affinity. The `syscall` instruction clobbers rcx and
    // r11, declared as such.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of::<u64>(),
            in("rdx") std::ptr::addr_of!(mask),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin(_cpu: usize) -> bool {
    false
}
