//! The reply oracle accepts exactly the modelled replies.

use hdnh_perfbench::oracle::{Oracle, Verdict};
use hdnh_perfbench::workload::{write_value, Op, Spec, Stream, ValueSize};
use hdnh_server::Reply;

const SEED: u64 = 42;

fn value(vs: ValueSize, key: u64, version: u32) -> Vec<u8> {
    let mut v = Vec::new();
    write_value(&mut v, vs, SEED, key, version);
    v
}

fn wrong(o: &Oracle, op: Op, reply: Reply) -> bool {
    matches!(o.check(&op, &reply), Verdict::Wrong(_))
}

#[test]
fn right_replies_pass() {
    for vs in [ValueSize::Inline8, ValueSize::Mix] {
        let o = Oracle {
            value: vs,
            seed: SEED,
        };
        for key in 0..200 {
            let get = Op::Get {
                key,
                expect: Some(3),
            };
            assert_eq!(
                o.check(&get, &Reply::Bulk(value(vs, key, 3))),
                Verdict::Right
            );
        }
        assert_eq!(
            o.check(
                &Op::Get {
                    key: 1,
                    expect: None
                },
                &Reply::Nil
            ),
            Verdict::Right
        );
        let set = Op::Set { key: 1, version: 4 };
        assert_eq!(o.check(&set, &Reply::Simple("OK".into())), Verdict::Right);
        let compact = Reply::Bulk(
            b"victims:1 segments_retired:1 records_relocated:2 bytes_reclaimed:64".to_vec(),
        );
        assert_eq!(o.check(&Op::Compact, &compact), Verdict::Right);
    }
}

#[test]
fn doctored_replies_are_wrong() {
    let vs = ValueSize::Mix;
    let o = Oracle {
        value: vs,
        seed: SEED,
    };
    let get = Op::Get {
        key: 7,
        expect: Some(2),
    };
    let good = value(vs, 7, 2);

    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x01;
    assert!(wrong(&o, get, Reply::Bulk(flipped)), "one flipped bit");
    assert!(
        wrong(&o, get, Reply::Bulk(good[..good.len() - 1].to_vec())),
        "truncated"
    );
    let mut longer = good.clone();
    longer.push(0);
    assert!(wrong(&o, get, Reply::Bulk(longer)), "extended");
    assert!(
        wrong(&o, get, Reply::Bulk(value(vs, 7, 1))),
        "stale version"
    );
    assert!(
        wrong(&o, get, Reply::Bulk(value(vs, 9, 2))),
        "another key's value"
    );
    assert!(wrong(&o, get, Reply::Nil), "live key answered nil");
    assert!(
        wrong(
            &o,
            Op::Get {
                key: 7,
                expect: None
            },
            Reply::Bulk(good)
        ),
        "absent key answered"
    );
    let set = Op::Set { key: 7, version: 3 };
    assert!(
        wrong(&o, set, Reply::Simple("QUEUED".into())),
        "SET not acknowledged OK"
    );
    assert!(
        wrong(&o, set, Reply::Int(1)),
        "SET answered with an integer"
    );
    assert!(
        wrong(&o, Op::Compact, Reply::Simple("OK".into())),
        "COMPACT without a report"
    );
}

#[test]
fn error_replies_are_failures_not_wrong() {
    let o = Oracle {
        value: ValueSize::Inline8,
        seed: SEED,
    };
    let v = o.check(
        &Op::Get {
            key: 1,
            expect: Some(0),
        },
        &Reply::Error("IO msync failed".into()),
    );
    assert_eq!(v, Verdict::Failed("IO msync failed".into()));
}

#[test]
fn sweep_reads_use_the_same_model() {
    let vs = ValueSize::Inline8;
    let o = Oracle {
        value: vs,
        seed: SEED,
    };
    let v = value(vs, 5, 0);
    assert_eq!(o.check_value(5, Some(0), Some(&v)), Verdict::Right);
    assert!(matches!(
        o.check_value(5, Some(1), Some(&v)),
        Verdict::Wrong(_)
    ));
    assert!(matches!(
        o.check_value(5, None, Some(&v)),
        Verdict::Wrong(_)
    ));
    assert_eq!(o.check_value(5, None, None), Verdict::Right);
}

#[test]
fn a_failed_set_admits_both_states_until_the_next_ack() {
    let vs = ValueSize::Inline8;
    let o = Oracle {
        value: vs,
        seed: SEED,
    };
    let mut stream = Stream::new(&Spec::named("skewed-read").expect("a workload"), SEED, 0);
    // Key 4 is preloaded at version 0; a SET to version 1 got an error.
    let get = Op::Get {
        key: 4,
        expect: Some(1),
    };
    let old = Reply::Bulk(value(vs, 4, 0));
    let new = Reply::Bulk(value(vs, 4, 1));
    assert!(matches!(
        o.check_unsure(&get, &old, stream.doubt(4)),
        Verdict::Wrong(_)
    ));
    stream.set_unsure(4, 1);
    assert_eq!(o.check_unsure(&get, &old, stream.doubt(4)), Verdict::Right);
    assert_eq!(o.check_unsure(&get, &new, stream.doubt(4)), Verdict::Right);
    assert!(
        matches!(
            o.check_unsure(&get, &Reply::Bulk(value(vs, 4, 2)), stream.doubt(4)),
            Verdict::Wrong(_)
        ),
        "a version no SET wrote"
    );
    assert!(
        matches!(
            o.check_unsure(&get, &Reply::Nil, stream.doubt(4)),
            Verdict::Wrong(_)
        ),
        "an update cannot make the key absent"
    );
    // A failed insert may leave the key absent.
    stream.set_unsure(6, 0);
    assert_eq!(stream.maybe_absent(), 1);
    let get_new = Op::Get {
        key: 6,
        expect: Some(0),
    };
    assert_eq!(
        o.check_unsure(&get_new, &Reply::Nil, stream.doubt(6)),
        Verdict::Right
    );
    // An acknowledged SET makes the model certain again.
    stream.set_acked(4);
    assert!(matches!(
        o.check_unsure(&get, &old, stream.doubt(4)),
        Verdict::Wrong(_)
    ));
}
