//! The partition functions under the names callers outside this crate have
//! long imported. They are [`wire`](crate::wire)'s functions, not a second
//! encoding: there is one batch format.

pub use crate::wire::{decode_partition, encode_partition};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::column::Column;
    use crate::datatype::{DataType, ScalarValue};
    use crate::schema::Schema;
    use crate::wire::{self, WIRE_MAGIC};
    use quokka_common::QuokkaError;

    fn sample() -> Batch {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int64),
            ("price", DataType::Float64),
            ("flag", DataType::Bool),
            ("ship", DataType::Date),
            ("comment", DataType::Utf8),
        ]);
        Batch::try_new(
            schema,
            vec![
                Column::Int64(vec![1, -5, 300]),
                Column::Float64(vec![0.5, 2.25, -9.0]),
                Column::Bool(vec![true, false, true]),
                Column::Date(vec![100, 0, -30]),
                Column::Utf8(vec!["hello".into(), "".into(), "unicode ✓".into()]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_batch() {
        let b = sample();
        let payload = encode_partition(std::slice::from_ref(&b));
        // The payload is the wire partition: a count, then a batch frame.
        assert_eq!(payload[..4], 1u32.to_be_bytes());
        assert_eq!(payload[4..8], WIRE_MAGIC.to_be_bytes());
        let decoded = wire::decode_partition(&payload).unwrap();
        assert_eq!(decoded, vec![b]);
        assert_eq!(decoded[0].value(2, 4), ScalarValue::Utf8("unicode ✓".into()));
    }

    #[test]
    fn roundtrip_empty_batch() {
        let b = Batch::empty(sample().schema().clone());
        let decoded = decode_partition(&encode_partition(std::slice::from_ref(&b))).unwrap();
        assert_eq!(decoded[0].num_rows(), 0);
        assert_eq!(decoded[0].schema(), b.schema());
        assert!(decode_partition(&encode_partition(&[])).unwrap().is_empty());
    }

    #[test]
    fn roundtrip_partition() {
        let b = sample();
        let payload = wire::encode_partition(&[b.clone(), b.slice(0, 1)]);
        let decoded = decode_partition(&payload).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0], b);
        assert_eq!(decoded[1].num_rows(), 1);
    }

    #[test]
    fn roundtrip_encoded_columns() {
        let modes = (0..64).map(|i| ["AIR", "MAIL", "SHIP"][i % 3].to_string()).collect();
        let plain = Batch::try_new(
            Schema::from_pairs(&[("mode", DataType::Utf8), ("qty", DataType::Int64)]),
            vec![Column::Utf8(modes), Column::Int64((0..64).map(|i| i % 50).collect())],
        )
        .unwrap();
        let encoded = Batch::try_new(
            plain.schema().clone(),
            plain.columns().iter().map(Column::encode_auto).collect(),
        )
        .unwrap();
        assert!(encoded.columns().iter().all(Column::is_encoded));
        let decoded = decode_partition(&encode_partition(std::slice::from_ref(&encoded))).unwrap();
        assert_eq!(decoded[0], plain, "the round trip preserves logical content");
        assert!(decoded[0].columns().iter().all(Column::is_encoded), "and the encodings");
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        let payload = encode_partition(&[sample()]);
        for cut in [0, 2, 10, payload.len() - 1] {
            assert!(matches!(decode_partition(&payload[..cut]), Err(QuokkaError::Storage(_))));
        }
        // A frame under any other magic, such as "QKBA", is rejected.
        let mut retired = payload.to_vec();
        retired[4..8].copy_from_slice(&0x514B_4241u32.to_be_bytes());
        assert!(matches!(decode_partition(&retired), Err(QuokkaError::Storage(_))));
        assert!(decode_partition(&[1, 2]).is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let b = sample();
        let payload = encode_partition(std::slice::from_ref(&b));
        assert_eq!(encode_partition(std::slice::from_ref(&b)), payload);
        assert_eq!(wire::encode_partition(&[b]), payload);
    }
}
