//! The record type flowing through RDDs, with a compact serialization
//! used when partitions are cached off-heap.

use dmem_types::{DmemError, DmemResult, EntryId};

/// A keyed feature vector — the shape of the data in every Fig. 10
/// workload (labels/weights/edges are all `key + f64 values`).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Record key (sample id, vertex id, cluster id…).
    pub key: u64,
    /// Numeric payload.
    pub values: Vec<f64>,
}

impl Record {
    /// Creates a record.
    pub(crate) fn new(key: u64, values: Vec<f64>) -> Self {
        Record { key, values }
    }

    /// Serialized size in bytes: 8 (key) + 4 (len) + 8 per value.
    pub(crate) fn serialized_len(&self) -> usize {
        8 + 4 + 8 * self.values.len()
    }

    /// Appends this record's wire form to `out`.
    pub(crate) fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&(self.values.len() as u32).to_le_bytes());
        for v in &self.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn read_from(buf: &[u8], pos: &mut usize) -> DmemResult<Record> {
        // Parse in place — this runs once per record on every cache read,
        // so it must not allocate beyond the `values` vector itself.
        let corrupt = || DmemError::Corrupt(EntryId::default());
        fn take<const N: usize>(buf: &[u8], pos: &mut usize) -> Option<[u8; N]> {
            let bytes = buf.get(*pos..*pos + N)?;
            *pos += N;
            Some(bytes.try_into().expect("slice of length N"))
        }
        let key = u64::from_le_bytes(take::<8>(buf, pos).ok_or_else(corrupt)?);
        let len = u32::from_le_bytes(take::<4>(buf, pos).ok_or_else(corrupt)?) as usize;
        if len > (buf.len() - *pos) / 8 {
            return Err(corrupt());
        }
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(f64::from_le_bytes(take::<8>(buf, pos).ok_or_else(corrupt)?));
        }
        Ok(Record { key, values })
    }
}

/// Serializes a whole partition.
pub(crate) fn serialize_partition(records: &[Record]) -> Vec<u8> {
    let total: usize = 4 + records.iter().map(Record::serialized_len).sum::<usize>();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in records {
        r.write_to(&mut out);
    }
    out
}

/// Deserializes a partition produced by [`serialize_partition`].
///
/// # Errors
///
/// Returns [`DmemError::Corrupt`] on truncated or malformed bytes.
pub(crate) fn deserialize_partition(buf: &[u8]) -> DmemResult<Vec<Record>> {
    if buf.len() < 4 {
        return Err(DmemError::Corrupt(EntryId::default()));
    }
    let count = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    let mut pos = 4;
    let mut records = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        records.push(Record::read_from(buf, &mut pos)?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_simple() {
        let records = vec![
            Record::new(1, vec![1.0, 2.5]),
            Record::new(2, vec![]),
            Record::new(u64::MAX, vec![f64::MIN, f64::MAX, f64::NAN]),
        ];
        let bytes = serialize_partition(&records);
        let back = deserialize_partition(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], records[0]);
        assert_eq!(back[1], records[1]);
        assert_eq!(back[2].key, u64::MAX);
        assert!(back[2].values[2].is_nan());
    }

    #[test]
    fn serialized_len_is_exact() {
        let r = Record::new(7, vec![1.0; 5]);
        let mut buf = Vec::new();
        r.write_to(&mut buf);
        assert_eq!(buf.len(), r.serialized_len());
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = serialize_partition(&[Record::new(1, vec![2.0, 3.0])]);
        for cut in [0, 3, 5, 12, bytes.len() - 1] {
            assert!(
                deserialize_partition(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn hostile_length_rejected() {
        // Claims 2^32-1 records in 8 bytes.
        let mut bytes = vec![0xFF, 0xFF, 0xFF, 0xFF];
        bytes.extend_from_slice(&[0u8; 4]);
        assert!(deserialize_partition(&bytes).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            recs in proptest::collection::vec(
                (any::<u64>(), proptest::collection::vec(-1e12f64..1e12, 0..16)),
                0..64,
            )
        ) {
            let records: Vec<Record> = recs.into_iter().map(|(k, v)| Record::new(k, v)).collect();
            let back = deserialize_partition(&serialize_partition(&records)).unwrap();
            prop_assert_eq!(back, records);
        }
    }
}
