//! Failure-mode tests: the substrate must fail loudly, not corrupt state.

use gcd_sim::{ArchProfile, Device, ExecMode, LaunchCfg};

#[test]
#[should_panic]
fn device_oob_read_panics() {
    let dev = Device::mi250x();
    let buf = dev.alloc_u32(4);
    buf.load(4);
}

#[test]
#[should_panic]
fn device_oob_write_panics() {
    let dev = Device::mi250x();
    let buf = dev.alloc_u32(4);
    buf.store(9, 1);
}

#[test]
#[should_panic]
fn kernel_oob_access_panics_in_both_modes() {
    let dev = Device::new(ArchProfile::mi250x_gcd(), ExecMode::Timing, 1);
    let buf = dev.alloc_u32(8);
    dev.launch(0, LaunchCfg::new("bad", 64), |w| {
        let mut out = Vec::new();
        w.vload32(&buf, [100], &mut out);
    });
}

#[test]
fn distinct_buffers_never_alias() {
    // The bump allocator must give line-aligned, disjoint address ranges so
    // the cache models can't conflate buffers.
    let dev = Device::mi250x();
    let a = dev.alloc_u32(3); // 12 bytes, rounds to one line
    let b = dev.alloc_u32(3);
    let line = dev.arch().line_bytes as u64;
    assert_eq!(a.addr(0) % line, 0);
    assert_eq!(b.addr(0) % line, 0);
    assert!(b.addr(0) >= a.addr(2) + 4, "allocations overlap");
}

#[test]
fn zero_length_buffer_is_usable() {
    let dev = Device::mi250x();
    let buf = dev.alloc_u32(0);
    assert!(buf.is_empty());
    assert!(buf.to_host().is_empty());
    // Filling a zero-length buffer is a no-op launch.
    let r = dev.fill_u32(0, &buf, 1);
    assert_eq!(r.stats.bytes_written, 0);
}

#[test]
fn timeline_reset_clears_everything() {
    let dev = Device::mi250x();
    let buf = dev.alloc_u32(1 << 12);
    dev.fill_u32(0, &buf, 1);
    dev.sync();
    assert!(dev.elapsed_us() > 0.0);
    dev.reset_timeline();
    assert_eq!(dev.elapsed_us(), 0.0);
    // A measured run starts with an empty report log.
    assert!(dev.take_reports().is_empty());
}

#[test]
#[should_panic]
fn invalid_stream_panics() {
    let dev = Device::mi250x(); // 1 stream
    let buf = dev.alloc_u32(16);
    dev.fill_u32(2, &buf, 0);
}
