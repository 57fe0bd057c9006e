package bench

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
)

// WriteCSV marshals a slice of flat structs (the row types the figure
// drivers return) to a CSV file with a header derived from the exported
// field names. Nested structs are flattened one level (used by fig10Row's
// embedded Property). Intended for plotting the regenerated figures with
// external tools: cmd/experiments -csv <dir>. A write that fails — a full
// disk included — is an error, never a silently truncated file.
func WriteCSV(path string, rows any) error {
	v := reflect.ValueOf(rows)
	if v.Kind() != reflect.Slice {
		return fmt.Errorf("bench: WriteCSV wants a slice, got %T", rows)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	err = writeRows(w, v)
	w.Flush()
	if err == nil {
		err = w.Error()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeRows(w *csv.Writer, v reflect.Value) error {
	if v.Len() == 0 {
		return nil
	}
	header, _ := flattenStruct(v.Index(0))
	if err := w.Write(header); err != nil {
		return err
	}
	for i := 0; i < v.Len(); i++ {
		_, vals := flattenStruct(v.Index(i))
		if err := w.Write(vals); err != nil {
			return err
		}
	}
	return nil
}

func flattenStruct(v reflect.Value) (names, vals []string) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		fv := v.Field(i)
		if fv.Kind() == reflect.Struct {
			n2, v2 := flattenStruct(fv)
			names = append(names, n2...)
			vals = append(vals, v2...)
			continue
		}
		names = append(names, f.Name)
		vals = append(vals, formatValue(fv))
	}
	return names, vals
}

func formatValue(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		return strconv.FormatFloat(v.Float(), 'g', 10, 64)
	case reflect.Int, reflect.Int32, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10)
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	case reflect.String:
		return v.String()
	default:
		return fmt.Sprint(v.Interface())
	}
}
