package dataset

import (
	"repro/internal/schema"
	"repro/internal/store"
)

// SalesSchema returns the reporting star schema for the business
// analytics workload.
func SalesSchema() *schema.Schema {
	return schema.MustNew("sales", []*schema.Table{
		{
			Name:       "regions",
			PrimaryKey: "region_id",
			Synonyms:   []string{"region", "territory", "area"},
			Columns: []schema.Column{
				{Name: "region_id", Type: schema.Int},
				{Name: "name", Type: schema.Text, NameLike: true},
			},
		},
		{
			Name:       "customers",
			PrimaryKey: "customer_id",
			Synonyms:   []string{"customer", "client", "buyer", "account"},
			Columns: []schema.Column{
				{Name: "customer_id", Type: schema.Int},
				{Name: "name", Type: schema.Text, NameLike: true},
				{Name: "region_id", Type: schema.Int},
				{Name: "segment", Type: schema.Text, Synonyms: []string{"tier", "type"}},
			},
		},
		{
			Name:       "products",
			PrimaryKey: "product_id",
			Synonyms:   []string{"product", "item", "good", "sku"},
			Columns: []schema.Column{
				{Name: "product_id", Type: schema.Int},
				{Name: "name", Type: schema.Text, NameLike: true},
				{Name: "category", Type: schema.Text, NameLike: true, Synonyms: []string{"kind", "line"}},
				{Name: "price", Type: schema.Float, Synonyms: []string{"cost", "unit price"}},
			},
		},
		{
			Name:       "orders",
			PrimaryKey: "order_id",
			Synonyms:   []string{"order", "purchase", "transaction", "sale"},
			Columns: []schema.Column{
				{Name: "order_id", Type: schema.Int},
				{Name: "customer_id", Type: schema.Int},
				{Name: "year", Type: schema.Int},
				{Name: "month", Type: schema.Int},
			},
		},
		{
			Name:     "order_items",
			Synonyms: []string{"order item", "line item", "item line"},
			Columns: []schema.Column{
				{Name: "order_id", Type: schema.Int},
				{Name: "product_id", Type: schema.Int},
				{Name: "quantity", Type: schema.Int, Synonyms: []string{"units", "count"}},
				{Name: "amount", Type: schema.Float, Synonyms: []string{"revenue", "total", "value", "sales"}},
			},
		},
	}, []schema.ForeignKey{
		{Table: "customers", Column: "region_id", RefTable: "regions", RefColumn: "region_id"},
		{Table: "orders", Column: "customer_id", RefTable: "customers", RefColumn: "customer_id"},
		{Table: "order_items", Column: "order_id", RefTable: "orders", RefColumn: "order_id"},
		{Table: "order_items", Column: "product_id", RefTable: "products", RefColumn: "product_id"},
	})
}

var salesRegions = []string{"North", "South", "East", "West"}

var salesSegments = []string{"Enterprise", "Consumer", "Government"}

var salesProducts = []struct {
	name     string
	category string
	price    float64
}{
	{"Falcon Laptop", "Computers", 1200},
	{"Eagle Desktop", "Computers", 950},
	{"Sparrow Tablet", "Computers", 450},
	{"Owl Monitor", "Displays", 320},
	{"Hawk Display", "Displays", 540},
	{"Robin Keyboard", "Accessories", 75},
	{"Wren Mouse", "Accessories", 35},
	{"Heron Headset", "Accessories", 110},
	{"Crane Printer", "Office", 280},
	{"Stork Scanner", "Office", 210},
	{"Swift Router", "Networking", 160},
	{"Swallow Switch", "Networking", 240},
	{"Finch Camera", "Imaging", 380},
	{"Raven Projector", "Imaging", 620},
	{"Dove Speaker", "Audio", 130},
	{"Lark Microphone", "Audio", 90},
	{"Kite Drone", "Imaging", 860},
	{"Teal Charger", "Accessories", 45},
	{"Jay Dock", "Accessories", 150},
	{"Ibis Server", "Computers", 3200},
}

// Sales builds the sales database. Scale 1: 4 regions, 30 customers,
// 20 products, 200 orders, ~2.2 items per order.
func Sales(scale int) *store.DB {
	scale = mustPositive(scale)
	db := store.NewDB(SalesSchema())
	ld := newLoader(db)
	r := rng(77)

	for i, name := range salesRegions {
		ld.add("regions", store.Int(int64(i+1)), store.Text(name))
	}
	// Region sizes are skewed (12/9/6/3 per 30 customers) so "the
	// region with the most customers" has a unique answer.
	regionOf := func(i int) int64 {
		switch slot := i % 30; {
		case slot < 12:
			return 1
		case slot < 21:
			return 2
		case slot < 27:
			return 3
		default:
			return 4
		}
	}
	nCustomers := 30 * scale
	for i := 0; i < nCustomers; i++ {
		ld.add("customers",
			store.Int(int64(i+1)),
			store.Text(personName(i+200)),
			store.Int(regionOf(i)),
			store.Text(salesSegments[r.Intn(len(salesSegments))]))
	}
	for i, p := range salesProducts {
		ld.add("products",
			store.Int(int64(i+1)), store.Text(p.name), store.Text(p.category), store.Float(p.price))
	}
	nOrders := 200 * scale
	itemID := 0
	for i := 0; i < nOrders; i++ {
		oid := int64(i + 1)
		cust := int64(1 + r.Intn(nCustomers))
		year := int64(2019 + r.Intn(4))
		month := int64(1 + r.Intn(12))
		ld.add("orders", store.Int(oid), store.Int(cust), store.Int(year), store.Int(month))
		nItems := 1 + r.Intn(3)
		for k := 0; k < nItems; k++ {
			itemID++
			pi := r.Intn(len(salesProducts))
			qty := int64(1 + r.Intn(5))
			amount := float64(qty) * salesProducts[pi].price
			ld.add("order_items",
				store.Int(oid), store.Int(int64(pi+1)), store.Int(qty), store.Float(amount))
		}
	}
	ld.flush()
	return db
}
