//! Offline shim for the subset of the `libc` crate this workspace uses.
//!
//! See the root `Cargo.toml` (`[workspace.dependencies]`) for why these
//! exist. Hand-written FFI declarations against the system C library
//! (which rustc links anyway) plus the constants the mmap/metrics code
//! touches. Values are the Linux x86-64 ABI ones; this workspace only
//! targets that platform (the real crate would be restored the moment the
//! build environment regains registry access).

#![allow(non_camel_case_types)]

pub use std::ffi::c_void;

pub type c_char = i8;
pub type c_int = i32;
pub type c_uint = u32;
pub type c_long = i64;
pub type c_ulong = u64;
pub type size_t = usize;
pub type ssize_t = isize;
pub type off_t = i64;

pub const PROT_NONE: c_int = 0;
pub const PROT_READ: c_int = 1;
pub const PROT_WRITE: c_int = 2;

pub const MAP_SHARED: c_int = 0x0001;
pub const MAP_PRIVATE: c_int = 0x0002;
pub const MAP_ANONYMOUS: c_int = 0x0020;
pub const MAP_FAILED: *mut c_void = !0 as *mut c_void;

pub const MS_ASYNC: c_int = 1;
pub const MS_INVALIDATE: c_int = 2;
pub const MS_SYNC: c_int = 4;

pub const MADV_NORMAL: c_int = 0;
pub const MADV_RANDOM: c_int = 1;
pub const MADV_SEQUENTIAL: c_int = 2;
pub const MADV_WILLNEED: c_int = 3;
pub const MADV_DONTNEED: c_int = 4;
pub const MADV_HUGEPAGE: c_int = 14;

pub const _SC_CLK_TCK: c_int = 2;
pub const _SC_PAGESIZE: c_int = 30;
pub const _SC_NPROCESSORS_ONLN: c_int = 84;

extern "C" {
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    pub fn msync(addr: *mut c_void, len: size_t, flags: c_int) -> c_int;
    pub fn madvise(addr: *mut c_void, len: size_t, advice: c_int) -> c_int;
    pub fn sysconf(name: c_int) -> c_long;
    pub fn getpid() -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysconf_pagesize_sane() {
        let ps = unsafe { sysconf(_SC_PAGESIZE) };
        assert!(ps >= 4096, "page size {ps}");
    }

    #[test]
    fn anonymous_mmap_roundtrip() {
        unsafe {
            let len = 4096usize;
            let p = mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            );
            assert_ne!(p, MAP_FAILED);
            *(p as *mut u8) = 42;
            assert_eq!(*(p as *const u8), 42);
            assert_eq!(munmap(p, len), 0);
        }
    }
}
