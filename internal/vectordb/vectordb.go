// Package vectordb is an embeddable vector store: a collection of vectors,
// each carrying one int32 tag, under an HNSW index, with optional
// Product-Quantization compression and tag-filtered search.
//
// It plays the role Qdrant plays in the paper's experimental setup — the
// paper uses Qdrant strictly as "store embeddings with metadata, index with
// HNSW, search by cosine similarity". The only metadata its callers keep per
// point is one integer (the index of the value or column the vector
// embeds), so that is what a point carries. A collection is built once, by
// Build, and then only searched.
package vectordb
