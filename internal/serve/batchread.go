package serve

import (
	"errors"

	"rcons/internal/jsonread"
)

// decodeBatchRequest reads a POST /v1/classify/batch body in one pass
// on a jsonread.Reader: it checks the grammar, decodes limit and each
// item's type as it goes, and leaves each item's Table a subslice of
// body: the exact bytes the client sent, which is what the item memo
// keys on (classifyItemKey). It accepts and rejects what json.Unmarshal
// into a batchRequest does (the rules are jsonread's), and
// FuzzBatchRequest holds it to that.
//
// One departure bounds the work an over-cap batch costs: an "items"
// array longer than maxItems ends the read at its element maxItems+1
// with errTooManyItems, although encoding/json would read on, and a
// later "items" key could replace the long array.
func decodeBatchRequest(body []byte, maxItems int) (batchRequest, error) {
	r := jsonread.NewReader(body)
	var req batchRequest
	err := r.Struct("the batch request", func(key []byte) error {
		switch {
		case jsonread.FieldIs(key, "limit"):
			n, ok, err := r.Int(`"limit"`)
			if ok {
				req.Limit = n
			}
			return err
		case jsonread.FieldIs(key, "items"):
			return jsonread.Slice(&r, &req.Items, `"items"`, func(i int, it *batchItem) error {
				if i == maxItems {
					return errTooManyItems
				}
				return readBatchItem(&r, it)
			})
		}
		return r.Skip()
	})
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return batchRequest{}, err
	}
	return req, nil
}

// errTooManyItems reports an "items" array longer than the reader's cap.
var errTooManyItems = errors.New("too many items")

func readBatchItem(r *jsonread.Reader, it *batchItem) error {
	return r.Struct("each item", func(key []byte) error {
		switch {
		case jsonread.FieldIs(key, "type"):
			s, ok, err := r.String(`"type"`)
			if ok {
				it.Type = string(s)
			}
			return err
		case jsonread.FieldIs(key, "table"):
			raw, err := r.Raw()
			if err == nil {
				it.Table = raw
			}
			return err
		}
		return r.Skip()
	})
}
